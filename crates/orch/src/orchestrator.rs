//! The orchestrator: one event loop driving a whole datacenter.

use std::collections::BTreeMap;

use rvisor_cluster::{HostSpec, VmSpec};
use rvisor_migrate::{FaultService, MigrationConfig, MigrationPlan, PlanEngine};
use rvisor_obs::{ArgValue, Trace};
use rvisor_snapshot::store::MAX_CHAIN_LENGTH;
use rvisor_snapshot::{CasStore, ManifestId, SnapshotStore};
use rvisor_types::{ByteSize, Error, HostId, Nanoseconds, Result};

use crate::cluster::{BackupHandle, Cluster, HostPower, VmKey};
use crate::event::{EventQueue, OrchEvent};
use crate::params::{EngineChoice, OrchParams};
use crate::planner::MigrationPlanner;
use crate::policy::{DecisionReason, RebalancePolicy};
use crate::report::OrchReport;
use crate::scenario::Scenario;

/// A VM waiting for capacity (arrival deferred by a full cluster).
#[derive(Debug, Clone)]
struct PendingVm {
    spec: VmSpec,
    arrived_at: Nanoseconds,
}

/// A VM lost to a host failure, restore scheduled.
#[derive(Debug, Clone)]
struct PendingRestore {
    spec: VmSpec,
    backup: BackupHandle,
    failed_at: Nanoseconds,
}

/// DR backups of one VM: at most one restorable snapshot plus at most one
/// still streaming to the DR target.
///
/// A backup only becomes restorable once its stream has fully *arrived* at
/// the DR endpoint — a host failure while the stream is on the wire falls
/// back to the previous (retained) backup, not the bytes in flight.
#[derive(Debug, Clone, Copy, Default)]
struct VmBackups {
    /// The newest fully-arrived backup and its size (what failures restore
    /// from; the size sets the DR read time without touching the store).
    ready: Option<(BackupHandle, ByteSize)>,
    /// A backup still crossing the fabric, its size and arrival instant.
    inflight: Option<(BackupHandle, ByteSize, Nanoseconds)>,
}

/// The entry for `key` in a per-VM table, growing the table on demand.
/// Keys are dense, so a table holds at most one entry per name the
/// cluster has interned.
fn slot<T: Default>(table: &mut Vec<T>, key: VmKey) -> &mut T {
    let i = key.index();
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

/// Delete the snapshot behind a handle, if it owns one (canonical model
/// backups occupy no store space; manifested epochs are owned by the
/// [`VmChain`] bookkeeping, never by a [`VmBackups`] slot).
fn discard(handle: BackupHandle, store: &mut SnapshotStore) {
    if let BackupHandle::Stored(id) = handle {
        let _ = store.delete(id);
    }
}

/// The manifest chain of one VM in the content-addressed DR store
/// ([`OrchParams::dedup_backups`]): the current chain (a full epoch plus
/// incrementals), the superseded previous chain retained until the new
/// chain's full has arrived, and whether the next epoch must recapture in
/// full (after a restore or a migration, the guest's dirty bitmap no longer
/// corresponds to the last recorded epoch).
#[derive(Debug, Clone, Default)]
struct VmChain {
    /// The current chain in capture order: `links[0]` is the full epoch.
    /// Each entry carries its arrival instant at the DR endpoint; within a
    /// chain every epoch streams from the same host, so arrivals are
    /// monotone and the arrived prefix is contiguous.
    links: Vec<(ManifestId, Nanoseconds)>,
    /// The previous chain, retained until the new chain's anchor arrives (a
    /// failure mid-stream falls back to its newest arrived epoch).
    prev: Vec<(ManifestId, Nanoseconds)>,
    /// The next epoch must be a full capture.
    force_full: bool,
}

/// Retire every epoch in `links`, newest first (an incremental depends on
/// its parent), releasing their chunk references for garbage collection.
fn retire_links(links: &mut Vec<(ManifestId, Nanoseconds)>, cas: &mut CasStore) {
    while let Some((m, _)) = links.pop() {
        let _ = cas.retire(m);
    }
}

impl VmChain {
    /// Garbage-collect the previous generation once the new chain's full
    /// epoch has fully arrived at the DR endpoint.
    fn settle(&mut self, cas: &mut CasStore, now: Nanoseconds) {
        if !self.prev.is_empty() {
            if let Some(&(_, anchor_arrival)) = self.links.first() {
                if anchor_arrival <= now {
                    retire_links(&mut self.prev, cas);
                }
            }
        }
    }

    /// The newest arrived epoch of `links` at `now`.
    fn newest_arrived(links: &[(ManifestId, Nanoseconds)], now: Nanoseconds) -> usize {
        links.iter().take_while(|&&(_, a)| a <= now).count()
    }
}

impl VmBackups {
    /// Promote the in-flight backup to `ready` if its stream has arrived by
    /// `now`, deleting the snapshot it supersedes.
    fn settle(&mut self, store: &mut SnapshotStore, now: Nanoseconds) {
        if let Some((handle, size, arrival)) = self.inflight {
            if arrival <= now {
                if let Some((old, _)) = self.ready.replace((handle, size)) {
                    discard(old, store);
                }
                self.inflight = None;
            }
        }
    }

    /// Delete every snapshot this VM still holds in the DR store.
    fn drop_all(self, store: &mut SnapshotStore) {
        if let Some((handle, _)) = self.ready {
            discard(handle, store);
        }
        if let Some((handle, _, _)) = self.inflight {
            discard(handle, store);
        }
    }
}

/// The datacenter control loop.
///
/// Owns the [`Cluster`], the [`EventQueue`], the DR [`SnapshotStore`] and the
/// [`RebalancePolicy`], and turns a [`Scenario`] into an [`OrchReport`] by
/// consuming events in deterministic time order. See the crate-level docs
/// for the event/policy model.
pub struct Orchestrator {
    params: OrchParams,
    policy: Box<dyn RebalancePolicy>,
    cluster: Cluster,
    queue: EventQueue,
    now: Nanoseconds,
    horizon: Nanoseconds,
    dr_store: SnapshotStore,
    /// The content-addressed DR store ([`OrchParams::dedup_backups`]); empty
    /// and untouched when dedup is off.
    dr_cas: CasStore,
    /// DR backups per [`VmKey`] (newest arrived + newest in flight).
    backups: Vec<VmBackups>,
    /// Manifest chains per [`VmKey`] (dedup mode's counterpart of
    /// `backups`); `None` until the VM's first dedup epoch.
    chains: Vec<Option<VmChain>>,
    pending_placement: Vec<PendingVm>,
    pending_restores: BTreeMap<VmKey, PendingRestore>,
    /// Arrival instants of VMs placed or waiting (for placement latency).
    report: OrchReport,
    /// Per-host power accounting: (currently powered, last flip instant).
    power_marks: Vec<(bool, Nanoseconds)>,
    /// `RestoreComplete` events scheduled by failure handling (conservation).
    restores_scheduled: u64,
    /// Observability plane: off by default, costing one branch per hook.
    trace: Trace,
    /// Thresholds for resolving [`EngineChoice::Auto`] decisions into a
    /// per-migration plan.
    planner: MigrationPlanner,
}

impl Orchestrator {
    /// Build an orchestrator over `host_specs` with `params` and `policy`.
    pub fn new(
        host_specs: Vec<HostSpec>,
        params: OrchParams,
        policy: Box<dyn RebalancePolicy>,
    ) -> Result<Self> {
        params.validate()?;
        let n_hosts = host_specs.len();
        let cluster = Cluster::new(host_specs, params)?;
        Ok(Orchestrator {
            params,
            policy,
            cluster,
            queue: EventQueue::new(),
            now: Nanoseconds::ZERO,
            horizon: Nanoseconds::ZERO,
            dr_store: SnapshotStore::new(),
            dr_cas: CasStore::new(),
            backups: Vec::new(),
            chains: Vec::new(),
            pending_placement: Vec::new(),
            pending_restores: BTreeMap::new(),
            report: OrchReport::default(),
            power_marks: vec![(true, Nanoseconds::ZERO); n_hosts],
            restores_scheduled: 0,
            trace: Trace::off(),
            planner: MigrationPlanner::default(),
        })
    }

    /// Replace the adaptive planner's thresholds (consulted only for
    /// [`EngineChoice::Auto`] decisions). Deterministic: the planner is
    /// pure, so a same-seed run with the same thresholds replays `==`.
    pub fn set_planner(&mut self, planner: MigrationPlanner) {
        self.planner = planner;
    }

    /// The cluster (inspection; the run consumes events, not this view).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Attach a trace sink before [`Orchestrator::run`]. Propagates to the
    /// cluster and its fabric, so one sink sees every layer. Tracing never
    /// influences the simulation: a traced run produces an `==`-equal
    /// [`OrchReport`] to an untraced one.
    pub fn set_trace(&mut self, trace: Trace) {
        self.cluster.set_trace(trace.clone());
        self.trace = trace;
    }

    /// The attached trace handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Run `scenario` to completion and return the SLA report.
    ///
    /// Deterministic: the same scenario (same seed/config) against the same
    /// parameters and policy produces an `==`-equal report every time.
    pub fn run(mut self, scenario: &Scenario) -> Result<OrchReport> {
        self.horizon = scenario.config.duration;

        // Seed the queue: scenario events first (so a tick scheduled for the
        // same instant fires after the load it reacts to), then periodic
        // rebalance/backup ticks across the whole day. `expected_events`
        // re-derives the delivery count independently of the queue's own
        // counters so the post-run conservation check has teeth.
        let mut expected_events: u64 = scenario.events.len() as u64;
        for (at, event) in &scenario.events {
            self.queue.push(*at, event.clone());
        }
        let mut t = self.params.rebalance_interval;
        while t < self.horizon {
            self.queue.push(t, OrchEvent::RebalanceTick);
            t = t.saturating_add(self.params.rebalance_interval);
            expected_events += 1;
        }
        let mut t = self.params.backup_interval;
        while t < self.horizon {
            self.queue.push(t, OrchEvent::BackupTick);
            t = t.saturating_add(self.params.backup_interval);
            expected_events += 1;
        }

        while let Some(scheduled) = self.queue.pop() {
            debug_assert!(scheduled.at >= self.now, "time went backwards");
            self.report.events_processed += 1;
            if scheduled.at > self.horizon {
                // Only deferred restore completions can outlive the day (the
                // generator and the tick seeding stay inside it). Leaving the
                // entry in `pending_restores` lets finalize() account the VM
                // as an end-of-day in-flight restore; simulated time never
                // advances past the horizon.
                debug_assert!(matches!(scheduled.event, OrchEvent::RestoreComplete { .. }));
                continue;
            }
            self.now = scheduled.at;
            if self.trace.is_on() {
                self.trace
                    .instant("orch", scheduled.event.kind(), self.now, &[]);
            }
            match scheduled.event {
                OrchEvent::VmArrival { spec } => self.on_arrival(spec)?,
                OrchEvent::VmDeparture { vm } => self.on_departure(&vm)?,
                OrchEvent::LoadChange {
                    vm,
                    cpu_demand_millicores,
                } => self.on_load_change(&vm, cpu_demand_millicores)?,
                OrchEvent::HostFailure { host } => self.on_host_failure(host)?,
                OrchEvent::SpineFailure { spine } => self.on_spine_failure(spine)?,
                OrchEvent::RebalanceTick => self.on_rebalance_tick()?,
                OrchEvent::BackupTick => self.on_backup_tick()?,
                OrchEvent::RestoreComplete { vm } => self.on_restore_complete(&vm)?,
            }
        }

        // Conservation: everything seeded plus every restore scheduled
        // mid-run by HostFailure handling was delivered exactly once. The
        // expected count is derived at the push sites, independently of the
        // queue's internals, so a queue that dropped or duplicated an event
        // fails here.
        expected_events += self.restores_scheduled;
        if self.report.events_processed != expected_events {
            return Err(Error::Config(format!(
                "event conservation violated: {} scheduled, {} delivered",
                expected_events, self.report.events_processed
            )));
        }
        self.finalize()
    }

    fn finalize(mut self) -> Result<OrchReport> {
        self.now = self.horizon;
        // Arrivals still waiting never made it.
        self.report.placements_unmet = self.pending_placement.len() as u64;
        // Restores still in flight never completed: the outage runs to the
        // end of the day.
        for pr in self.pending_restores.values() {
            self.report.vm_time_lost = self
                .report
                .vm_time_lost
                .saturating_add(self.horizon.saturating_sub(pr.failed_at));
            self.report.vms_lost_permanently += 1;
        }
        // Close the powered-time integral.
        for i in 0..self.power_marks.len() {
            self.accrue_power(i, false);
        }
        self.report.sim_end = self.horizon;
        self.report.vms_running_at_end = self.cluster.total_vms() as u64;
        self.report.hosts_powered_at_end = self.cluster.powered_on() as u64;
        if self.params.dedup_backups {
            self.report.dr_store_chunks = self.dr_cas.chunk_count();
            self.report.dr_store_bytes = self.dr_cas.stored_bytes().as_u64();
        }
        Ok(self.report)
    }

    /// Accrue powered time for host `i` up to `now`; `flip` marks a state
    /// change (the new state is read from the cluster afterwards).
    fn accrue_power(&mut self, i: usize, flip: bool) {
        let (was_on, since) = self.power_marks[i];
        if was_on {
            self.report.powered_host_time = self
                .report
                .powered_host_time
                .saturating_add(self.now.saturating_sub(since));
        }
        if flip {
            let on_now = self.cluster.hosts()[i].power() == HostPower::On;
            self.power_marks[i] = (on_now, self.now);
        } else {
            self.power_marks[i].1 = self.now;
        }
    }

    fn note_power_change(&mut self, host: HostId) {
        if let Some(i) = self.cluster.position_of(host) {
            self.accrue_power(i, true);
        }
        let powered = self.cluster.powered_on() as u64;
        self.report.peak_hosts_powered = self.report.peak_hosts_powered.max(powered);
    }

    fn note_vm_count(&mut self) {
        let total = self.cluster.total_vms() as u64;
        self.report.peak_vms = self.report.peak_vms.max(total);
    }

    /// Find capacity for `spec`, powering on a parked host if needed.
    fn find_capacity(&mut self, spec: &VmSpec) -> Option<HostId> {
        if let Some(h) = self.cluster.choose_host(self.params.placement, spec) {
            return Some(h);
        }
        // Placement pressure overrides consolidation: wake a parked host.
        let parked = self.cluster.first_parked()?;
        self.cluster.power_on(parked).ok()?;
        self.report.power_on_actions += 1;
        self.note_power_change(parked);
        self.cluster.choose_host(self.params.placement, spec)
    }

    fn place_now(&mut self, spec: VmSpec, arrived_at: Nanoseconds) -> Result<bool> {
        let Some(host) = self.find_capacity(&spec) else {
            return Ok(false);
        };
        // The name outlives `deploy` (which consumes the spec) only when a
        // sink is attached, so the traced-off path allocates nothing extra.
        let traced_name = if self.trace.is_on() {
            Some(spec.name.clone())
        } else {
            None
        };
        self.cluster.deploy(host, spec)?;
        let latency = self
            .now
            .saturating_sub(arrived_at)
            .saturating_add(self.params.provision_latency);
        if let Some(name) = traced_name {
            self.trace.instant(
                "orch",
                "placement",
                self.now,
                &[
                    ("vm", ArgValue::Str(&name)),
                    ("host", ArgValue::U64(u64::from(host.raw()))),
                    ("latency_ns", ArgValue::U64(latency.as_nanos())),
                ],
            );
            self.trace
                .observe("placement.latency_ns", latency.as_nanos());
        }
        self.report.vms_placed += 1;
        self.report.placement_latency_total =
            self.report.placement_latency_total.saturating_add(latency);
        self.report.placement_latency_max = self.report.placement_latency_max.max(latency);
        self.note_vm_count();
        Ok(true)
    }

    fn on_arrival(&mut self, spec: VmSpec) -> Result<()> {
        self.report.vms_arrived += 1;
        let arrived_at = self.now;
        if !self.place_now(spec.clone(), arrived_at)? {
            self.report.placements_deferred += 1;
            self.pending_placement.push(PendingVm { spec, arrived_at });
        }
        Ok(())
    }

    /// Retry deferred placements (capacity may have appeared).
    fn drain_pending(&mut self) -> Result<()> {
        let mut still_waiting = Vec::new();
        let waiting = std::mem::take(&mut self.pending_placement);
        for p in waiting {
            // FIFO with backfill: a later, smaller VM may land even while the
            // head of the queue is still waiting for a big slot.
            if !self.place_now(p.spec.clone(), p.arrived_at)? {
                still_waiting.push(p);
            }
        }
        self.pending_placement = still_waiting;
        Ok(())
    }

    /// Release every DR snapshot held for a departed VM — and, in dedup
    /// mode, retire its whole manifest chain so the chunks it pinned are
    /// garbage-collected.
    fn drop_backups(&mut self, key: VmKey) {
        if let Some(b) = self.backups.get_mut(key.index()) {
            std::mem::take(b).drop_all(&mut self.dr_store);
        }
        if let Some(mut chain) = self.chains.get_mut(key.index()).and_then(Option::take) {
            let epochs = (chain.links.len() + chain.prev.len()) as u64;
            retire_links(&mut chain.links, &mut self.dr_cas);
            retire_links(&mut chain.prev, &mut self.dr_cas);
            if self.trace.is_on() {
                self.trace.instant(
                    "dr/cas",
                    "retire-chain",
                    self.now,
                    &[
                        ("vm", ArgValue::Str(self.cluster.name_of(key))),
                        ("epochs", ArgValue::U64(epochs)),
                    ],
                );
            }
        }
    }

    /// Dedup-mode failure handling: the newest restorable epoch of `vm` at
    /// the failure instant, with its chain read-back size. Epochs whose
    /// streams were still on the wire died with the host and are retired;
    /// if the current chain has no arrived epoch the previous (retained)
    /// generation is the fallback. Marks the chain to recapture in full,
    /// since the restored guest's dirty bitmap will not correspond to any
    /// recorded epoch.
    fn restorable_epoch(&mut self, key: VmKey) -> Option<(BackupHandle, ByteSize)> {
        let chain = self.chains.get_mut(key.index())?.as_mut()?;
        chain.settle(&mut self.dr_cas, self.now);
        let arrived = VmChain::newest_arrived(&chain.links, self.now);
        if arrived == 0 {
            retire_links(&mut chain.links, &mut self.dr_cas);
            let arrived_prev = VmChain::newest_arrived(&chain.prev, self.now);
            while chain.prev.len() > arrived_prev {
                let (m, _) = chain.prev.pop().expect("len checked");
                let _ = self.dr_cas.retire(m);
            }
            if arrived_prev == 0 {
                self.chains[key.index()] = None;
                return None;
            }
            chain.links = std::mem::take(&mut chain.prev);
        } else {
            while chain.links.len() > arrived {
                let (m, _) = chain.links.pop().expect("len checked");
                let _ = self.dr_cas.retire(m);
            }
        }
        chain.force_full = true;
        let (target, _) = *chain.links.last().expect("non-empty arrived prefix");
        let size = self.dr_cas.chain_restore_size(target).ok()?;
        Some((BackupHandle::Manifested(target), size))
    }

    fn on_departure(&mut self, vm: &str) -> Result<()> {
        let key = self.cluster.key_of(vm);
        if let Some(key) = key.filter(|&k| self.cluster.pos_of_key(k).is_some()) {
            self.cluster.destroy_key(key)?;
            self.drop_backups(key);
            self.report.vms_departed += 1;
            self.drain_pending()?;
            return Ok(());
        }
        if let Some(i) = self
            .pending_placement
            .iter()
            .position(|p| p.spec.name == vm)
        {
            self.pending_placement.remove(i);
            self.report.vms_departed += 1;
            return Ok(());
        }
        let restoring = key.and_then(|k| self.pending_restores.remove(&k).map(|pr| (k, pr)));
        if let Some((key, pr)) = restoring {
            // The tenant gave up on a VM we were still restoring: the outage
            // ran from the failure to this departure.
            self.report.vm_time_lost = self
                .report
                .vm_time_lost
                .saturating_add(self.now.saturating_sub(pr.failed_at));
            self.drop_backups(key);
            self.report.vms_departed += 1;
            return Ok(());
        }
        // Already gone (permanently lost, or double departure).
        self.report.events_dropped += 1;
        Ok(())
    }

    fn on_load_change(&mut self, vm: &str, millicores: u32) -> Result<()> {
        let demand = millicores as f64 / 1000.0;
        let key = self.cluster.key_of(vm);
        if let Some(key) = key.filter(|&k| self.cluster.pos_of_key(k).is_some()) {
            self.cluster.set_cpu_demand_key(key, demand)?;
            return Ok(());
        }
        if let Some(p) = self
            .pending_placement
            .iter_mut()
            .find(|p| p.spec.name == vm)
        {
            p.spec.cpu_demand_cores = demand;
            return Ok(());
        }
        if let Some(pr) = key.and_then(|k| self.pending_restores.get_mut(&k)) {
            pr.spec.cpu_demand_cores = demand;
            return Ok(());
        }
        self.report.events_dropped += 1;
        Ok(())
    }

    fn on_host_failure(&mut self, host: HostId) -> Result<()> {
        let Some(h) = self.cluster.hosts().iter().find(|h| h.id() == host) else {
            self.report.events_dropped += 1;
            return Ok(());
        };
        if h.power() == HostPower::Failed {
            self.report.events_dropped += 1;
            return Ok(());
        }
        let (keys, lost) = self.cluster.fail_host_keyed(host)?;
        self.report.hosts_failed += 1;
        self.report.vms_lost_at_failure += lost.len() as u64;
        self.note_power_change(host);
        if self.trace.is_on() {
            self.trace.instant(
                "orch",
                "failure",
                self.now,
                &[
                    ("host", ArgValue::U64(u64::from(host.raw()))),
                    ("vms_lost", ArgValue::U64(lost.len() as u64)),
                ],
            );
        }

        // DR: schedule restores for every backed-up casualty. The restore
        // pipeline is serial (one DR target), so completion times accumulate:
        // detection delay, then setup + transfer per VM.
        let mut done_at = self
            .now
            .saturating_add(self.params.failover_detection_delay);
        for (key, spec) in keys.into_iter().zip(lost) {
            // Only a backup whose stream has fully arrived at the DR target
            // by the failure instant is restorable; bytes still on the wire
            // do not count (the retained previous backup does).
            let restorable = if self.params.dedup_backups {
                self.restorable_epoch(key)
            } else {
                match self.backups.get_mut(key.index()) {
                    Some(b) => {
                        b.settle(&mut self.dr_store, self.now);
                        b.ready
                    }
                    None => None,
                }
            };
            match restorable {
                Some((backup, size)) => {
                    done_at = done_at
                        .saturating_add(self.params.backup_target.restore_setup)
                        .saturating_add(self.params.backup_target.read_time(size));
                    let vm = spec.name.clone();
                    self.pending_restores.insert(
                        key,
                        PendingRestore {
                            spec,
                            backup,
                            failed_at: self.now,
                        },
                    );
                    self.queue.push(done_at, OrchEvent::RestoreComplete { vm });
                    self.restores_scheduled += 1;
                    if self.trace.is_on() {
                        self.trace.instant(
                            "orch/policy",
                            "restore-scheduled",
                            self.now,
                            &[
                                ("vm", ArgValue::Str(self.cluster.name_of(key))),
                                ("ready_at_ns", ArgValue::U64(done_at.as_nanos())),
                                (
                                    "reason",
                                    ArgValue::Str(DecisionReason::FailureRecovery.as_str()),
                                ),
                            ],
                        );
                    }
                }
                None => {
                    // Never backed up (or its only backup was still on the
                    // wire): gone for good. Discard whatever snapshots the
                    // name still holds so they cannot leak in the DR store —
                    // or settle later and restore an unrelated future VM
                    // that reuses the name.
                    self.drop_backups(key);
                    self.report.vms_lost_permanently += 1;
                    self.report.vm_time_lost = self
                        .report
                        .vm_time_lost
                        .saturating_add(self.horizon.saturating_sub(self.now));
                    if self.trace.is_on() {
                        self.trace.instant(
                            "orch",
                            "vm-lost",
                            self.now,
                            &[("vm", ArgValue::Str(&spec.name))],
                        );
                    }
                }
            }
        }
        Ok(())
    }

    fn on_restore_complete(&mut self, vm: &str) -> Result<()> {
        let Some(pr) = self
            .cluster
            .key_of(vm)
            .and_then(|key| self.pending_restores.remove(&key))
        else {
            // Restore was cancelled (the VM departed mid-restore).
            self.report.events_dropped += 1;
            return Ok(());
        };
        let Some(host) = self.find_capacity(&pr.spec) else {
            // Nowhere to put it: permanently lost to capacity.
            self.report.vms_lost_permanently += 1;
            self.report.vm_time_lost = self
                .report
                .vm_time_lost
                .saturating_add(self.horizon.saturating_sub(pr.failed_at));
            return Ok(());
        };
        match pr.backup {
            BackupHandle::Manifested(m) => {
                self.cluster
                    .restore_manifested(&pr.spec, m, &self.dr_cas, host)?
            }
            backup => self
                .cluster
                .restore(&pr.spec, backup, &self.dr_store, host)?,
        }
        if self.trace.is_on() {
            // The restore span covers the whole outage: failure to resumption.
            self.trace.span(
                "dr",
                "restore",
                pr.failed_at,
                self.now,
                &[
                    ("vm", ArgValue::Str(vm)),
                    ("host", ArgValue::U64(u64::from(host.raw()))),
                    (
                        "outage_ns",
                        ArgValue::U64(self.now.saturating_sub(pr.failed_at).as_nanos()),
                    ),
                ],
            );
            self.trace.observe(
                "restore.outage_ns",
                self.now.saturating_sub(pr.failed_at).as_nanos(),
            );
            self.trace.add("restores", 1);
        }
        self.report.vms_restored += 1;
        self.report.vm_time_lost = self
            .report
            .vm_time_lost
            .saturating_add(self.now.saturating_sub(pr.failed_at));
        self.note_vm_count();
        Ok(())
    }

    fn on_spine_failure(&mut self, spine: usize) -> Result<()> {
        // Degrade, never partition: the fabric refuses to fail its last live
        // spine (and the single-spine topology refuses always); a refused
        // failure is consumed and counted, not an error.
        match self.cluster.fail_spine(spine) {
            Ok(()) => {
                self.report.spines_failed += 1;
                if self.trace.is_on() {
                    self.trace.instant(
                        "orch",
                        "spine-failed",
                        self.now,
                        &[("spine", ArgValue::U64(spine as u64))],
                    );
                }
            }
            Err(_) => self.report.events_dropped += 1,
        }
        Ok(())
    }

    /// Resolve a policy's engine selector into the [`MigrationPlan`] one
    /// migration will execute. Static choices lower the run-level knobs;
    /// [`EngineChoice::Auto`] consults the adaptive planner with the VM's
    /// observed dirty rate, spec size and the current fabric backlog, and
    /// emits the decision as a typed `orch/planner` instant.
    fn resolve_plan(&mut self, choice: EngineChoice, key: VmKey) -> MigrationPlan {
        if let Some(engine) = choice.plan_engine() {
            return MigrationConfig {
                streams: self.params.migration_streams,
                compression: self.params.migration_compression,
                ..Default::default()
            }
            .plan(engine);
        }
        let dirty_rate = self.cluster.observed_dirty_rate(key).unwrap_or(0);
        let guest = self.cluster.spec_memory_of(key).unwrap_or(ByteSize::new(0));
        let backlog = self.cluster.fabric().free_at().saturating_sub(self.now);
        let chosen = self.planner.plan(dirty_rate, guest, backlog);
        self.report.planner_decisions += 1;
        match chosen.plan.engine {
            PlanEngine::StopAndCopy => self.report.planner_stop_and_copy += 1,
            PlanEngine::PreCopy => self.report.planner_pre_copy += 1,
            PlanEngine::PostCopy => self.report.planner_post_copy += 1,
        }
        if chosen.plan.fault_service == FaultService::FaultLane {
            self.report.planner_fault_lane += 1;
        }
        if self.trace.is_on() {
            self.trace.instant(
                "orch/planner",
                "plan",
                self.now,
                &[
                    ("vm", ArgValue::Str(self.cluster.name_of(key))),
                    ("engine", ArgValue::Str(chosen.plan.engine.name())),
                    (
                        "fault_service",
                        ArgValue::Str(chosen.plan.fault_service.name()),
                    ),
                    ("streams", ArgValue::U64(chosen.plan.streams.get() as u64)),
                    ("dirty_rate", ArgValue::U64(dirty_rate)),
                    ("guest_bytes", ArgValue::U64(guest.as_u64())),
                    ("backlog_ns", ArgValue::U64(backlog.as_nanos())),
                    ("reason", ArgValue::Str(chosen.reason)),
                ],
            );
            self.trace.add("planner.decisions", 1);
        }
        chosen.plan
    }

    fn on_rebalance_tick(&mut self) -> Result<()> {
        let plan = self.policy.plan(&self.cluster, &self.params);
        let reason = self.policy.reason();
        for host in &plan.power_on {
            if self.cluster.power_on(*host).is_ok() {
                self.report.power_on_actions += 1;
                self.note_power_change(*host);
                if self.trace.is_on() {
                    self.trace.instant(
                        "orch/policy",
                        "power-on",
                        self.now,
                        &[
                            ("host", ArgValue::U64(u64::from(host.raw()))),
                            ("reason", ArgValue::Str(reason.as_str())),
                        ],
                    );
                }
            }
        }
        for decision in plan
            .migrations
            .iter()
            .take(self.params.max_migrations_per_tick)
        {
            self.report.migrations_planned += 1;
            if self.trace.is_on() {
                // Why this VM / this host / this engine and stream count —
                // the typed reason plus the decision itself, even when the
                // execution below is skipped (the skip is visible too).
                self.trace.instant(
                    "orch/policy",
                    "decision",
                    self.now,
                    &[
                        ("vm", ArgValue::Str(&decision.vm)),
                        ("to", ArgValue::U64(u64::from(decision.to.raw()))),
                        (
                            "engine",
                            ArgValue::Str(
                                decision.engine.plan_engine().map_or("auto", |e| e.name()),
                            ),
                        ),
                        (
                            "streams",
                            ArgValue::U64(self.params.migration_streams.get() as u64),
                        ),
                        ("reason", ArgValue::Str(reason.as_str())),
                        ("policy", ArgValue::Str(self.policy.name())),
                    ],
                );
                self.trace.add("policy.decisions", 1);
            }
            let Some((key, from)) = self
                .cluster
                .key_of(&decision.vm)
                .and_then(|key| self.cluster.host_of_key(key).map(|from| (key, from)))
            else {
                self.report.migrations_skipped += 1;
                continue;
            };
            // Hot-spine scheduling: when the whole spine tier is booked out
            // beyond `hot_spine_defer`, a cross-rack migration would queue
            // behind that backlog anyway — skip it and let the next tick
            // retry against a (hopefully) cooler fabric. Rack-local moves
            // never touch a spine and always proceed.
            if let Some(defer) = self.params.hot_spine_defer {
                if self.cluster.is_cross_rack(from, decision.to)
                    && self.cluster.fabric().free_at() > self.now.saturating_add(defer)
                {
                    self.report.migrations_skipped += 1;
                    if self.trace.is_on() {
                        self.trace.instant(
                            "orch/policy",
                            "hot-spine-defer",
                            self.now,
                            &[
                                ("vm", ArgValue::Str(&decision.vm)),
                                (
                                    "spines_free_at_ns",
                                    ArgValue::U64(self.cluster.fabric().free_at().as_nanos()),
                                ),
                            ],
                        );
                    }
                    continue;
                }
            }
            // How long this migration will sit queued for the fabric: the
            // engine's own clock starts when the path frees, so the queue
            // wait is accounted here, at the layer that owns the decision
            // instant. (Computed before the migration mutates the marks.)
            let fabric_wait = match (
                self.cluster.position_of(from),
                self.cluster.position_of(decision.to),
            ) {
                (Some(f), Some(t)) => self
                    .cluster
                    .fabric()
                    .path_free_at(f, t)
                    .map(|free| free.saturating_sub(self.now))
                    .unwrap_or(Nanoseconds::ZERO),
                _ => Nanoseconds::ZERO,
            };
            let exec_plan = self.resolve_plan(decision.engine, key);
            match self
                .cluster
                .migrate_key(key, decision.to, &exec_plan, self.now)
            {
                Ok(r) => {
                    self.report.migrations_completed += 1;
                    self.report.migration_fabric_wait_total = self
                        .report
                        .migration_fabric_wait_total
                        .saturating_add(fabric_wait);
                    self.report.migration_downtime_total = self
                        .report
                        .migration_downtime_total
                        .saturating_add(r.downtime);
                    self.report.migration_time_total = self
                        .report
                        .migration_time_total
                        .saturating_add(r.total_time);
                    self.report.migration_bytes += r.bytes_transferred;
                    // The adaptive control plane's acceptance metric: both
                    // a long pause and a long transfer make it worse.
                    self.report.downtime_duration_integral +=
                        r.downtime.as_nanos() as u128 * r.total_time.as_nanos() as u128;
                    // The destination guest's dirty bitmap no longer tracks
                    // the last recorded epoch (zero-run pages skipped on the
                    // wire are not marked dirty at the destination): restart
                    // the VM's dedup chain with a full capture.
                    if let Some(Some(chain)) = self.chains.get_mut(key.index()) {
                        chain.force_full = true;
                    }
                }
                Err(_) => self.report.migrations_skipped += 1,
            }
        }
        for host in &plan.power_off {
            if self.cluster.power_off(*host).is_ok() {
                self.report.power_off_actions += 1;
                self.note_power_change(*host);
                if self.trace.is_on() {
                    self.trace.instant(
                        "orch/policy",
                        "power-off",
                        self.now,
                        &[
                            ("host", ArgValue::U64(u64::from(host.raw()))),
                            ("reason", ArgValue::Str(reason.as_str())),
                        ],
                    );
                }
            }
        }
        self.drain_pending()
    }

    fn on_backup_tick(&mut self) -> Result<()> {
        if self.params.dedup_backups {
            return self.on_backup_tick_dedup();
        }
        let label = format!("backup@{}", self.now.as_nanos());
        // The snapshot streams across the shared fabric to the DR endpoint
        // (contending with any in-flight migrations), then is written to
        // the backup target's storage.
        self.cluster.backup_sweep(
            &label,
            &mut self.dr_store,
            self.now,
            |key, store, snap, size, arrival| {
                self.report.backups_taken += 1;
                self.report.backup_bytes += size.as_u64();
                let network_time = arrival.saturating_sub(self.now);
                self.report.backup_time_total = self
                    .report
                    .backup_time_total
                    .saturating_add(network_time)
                    .saturating_add(self.params.backup_target.write_time(size));
                // Bounded DR storage per VM: the newest arrived backup plus
                // at most one in flight. A still-streaming predecessor is
                // superseded (its stream is abandoned and its snapshot
                // dropped); the new backup becomes restorable only once its
                // own stream arrives.
                let entry = slot(&mut self.backups, key);
                entry.settle(store, self.now);
                if let Some((superseded, _, _)) = entry.inflight.replace((snap, size, arrival)) {
                    discard(superseded, store);
                }
            },
        )
    }

    /// The deduplicated backup sweep ([`OrchParams::dedup_backups`]): each
    /// VM's first epoch (and the first after a restore, a migration, or a
    /// full-length chain) is a full capture; every later sweep captures only
    /// the pages dirtied since the previous epoch. Epochs are ingested into
    /// the content-addressed store, and only novel chunks ship across the
    /// fabric — already-known pages go as references.
    fn on_backup_tick_dedup(&mut self) -> Result<()> {
        let label = format!("backup@{}", self.now.as_nanos());
        self.cluster.sweep(|cluster, pos, key| {
            let parent = {
                let chain = slot(&mut self.chains, key).get_or_insert_with(VmChain::default);
                chain.settle(&mut self.dr_cas, self.now);
                if chain.force_full || chain.links.len() >= MAX_CHAIN_LENGTH {
                    None
                } else {
                    chain.links.last().map(|&(m, _)| m)
                }
            };
            let b =
                cluster.backup_dedup_at(pos, key, &label, &mut self.dr_cas, parent, self.now)?;
            self.report.backups_taken += 1;
            // `backup_bytes` keeps its bytes-on-wire meaning, so the
            // dedup-on/off comparison reads straight off the report.
            self.report.backup_bytes += b.wire_bytes;
            let network_time = b.arrival.saturating_sub(self.now);
            // The DR target only writes the novel chunk payloads;
            // references resolve against chunks it already holds.
            self.report.backup_time_total = self
                .report
                .backup_time_total
                .saturating_add(network_time)
                .saturating_add(
                    self.params
                        .backup_target
                        .write_time(ByteSize::new(b.stats.bytes_novel)),
                );
            self.report.backup_chunks_shipped += b.stats.chunks_novel;
            self.report.backup_chunks_deduped += b.stats.chunks_deduped;
            self.report.backup_bytes_deduped += b.stats.bytes_deduped;
            if self.trace.is_on() {
                self.trace.instant(
                    "dr/cas",
                    "ingest",
                    self.now,
                    &[
                        ("vm", ArgValue::Str(cluster.name_of(key))),
                        ("manifest", ArgValue::U64(b.manifest.0)),
                        ("full", ArgValue::U64(u64::from(parent.is_none()))),
                        ("chunks_novel", ArgValue::U64(b.stats.chunks_novel)),
                        ("chunks_deduped", ArgValue::U64(b.stats.chunks_deduped)),
                        ("wire_bytes", ArgValue::U64(b.wire_bytes)),
                    ],
                );
                self.trace.add("cas.chunks_shipped", b.stats.chunks_novel);
                self.trace.add("cas.chunks_deduped", b.stats.chunks_deduped);
            }
            let chain = self.chains[key.index()].as_mut().expect("inserted above");
            if parent.is_none() {
                // A new full supersedes the previous generation: whatever
                // `prev` still held is retired now, and the old chain is
                // retained until the new anchor arrives at the DR endpoint.
                retire_links(&mut chain.prev, &mut self.dr_cas);
                chain.prev = std::mem::take(&mut chain.links);
                chain.force_full = false;
            }
            chain.links.push((b.manifest, b.arrival));
            Ok(())
        })
    }
}

/// Convenience: run `scenario` on a uniform cluster of `hosts` modern
/// servers with `params` and `policy`, returning the report.
pub fn run_datacenter(
    hosts: usize,
    params: OrchParams,
    policy: Box<dyn RebalancePolicy>,
    scenario: &Scenario,
) -> Result<OrchReport> {
    if hosts == 0 {
        return Err(Error::Config("need at least one host".into()));
    }
    let specs = (0..hosts)
        .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
        .collect();
    Orchestrator::new(specs, params, policy)?.run(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ConsolidateAndPowerDown, SpreadRebalance, ThresholdRebalance};
    use crate::scenario::{ScenarioConfig, WorkloadShape};

    fn small_scenario(seed: u64, failures: usize) -> Scenario {
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(seed, WorkloadShape::SteadyState, 4, 40)
        }
        .with_host_failures(failures);
        Scenario::generate(cfg).unwrap()
    }

    fn fast_params() -> OrchParams {
        OrchParams {
            rebalance_interval: Nanoseconds::from_secs(600),
            backup_interval: Nanoseconds::from_secs(900),
            ..Default::default()
        }
    }

    #[test]
    fn day_runs_and_reports() {
        let s = small_scenario(1, 0);
        let r = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(r.vms_arrived, 40);
        assert!(r.vms_placed > 0);
        assert!(r.backups_taken > 0);
        assert_eq!(r.hosts_failed, 0);
        // With no failures, every placed VM either departed or is still up
        // (departures may additionally cover never-placed, still-queued VMs).
        assert!(r.vms_placed <= r.vms_departed + r.vms_running_at_end);
        assert!(r.peak_vms >= r.vms_running_at_end);
        assert!(r.placement_latency_max >= r.placement_latency_avg());
    }

    #[test]
    fn multi_stream_day_replays_identically() {
        // A datacenter day whose rebalance migrations run through the
        // pipelined 4-stream data plane must still be a pure function of
        // the scenario: same seed, `==` report — thread scheduling inside
        // the migration engine can never leak into the simulated clock.
        let params = OrchParams {
            migration_streams: std::num::NonZeroUsize::new(4).unwrap(),
            ..fast_params()
        };
        let a = run_datacenter(
            4,
            params,
            Box::new(ThresholdRebalance),
            &small_scenario(9, 1),
        )
        .unwrap();
        let b = run_datacenter(
            4,
            params,
            Box::new(ThresholdRebalance),
            &small_scenario(9, 1),
        )
        .unwrap();
        assert_eq!(a, b, "multi-stream day must replay identically");
        // The multi-stream day moves the same payload bytes as the serial
        // one; only fabric timing may differ (per-stream MTU framing).
        let serial = run_datacenter(
            4,
            fast_params(),
            Box::new(ThresholdRebalance),
            &small_scenario(9, 1),
        )
        .unwrap();
        assert_eq!(a.migrations_completed, serial.migrations_completed);
    }

    #[test]
    fn same_seed_same_report_across_policies() {
        for policy in 0..3 {
            let mk = || -> Box<dyn crate::policy::RebalancePolicy> {
                match policy {
                    0 => Box::new(ThresholdRebalance),
                    1 => Box::new(ConsolidateAndPowerDown),
                    _ => Box::new(SpreadRebalance),
                }
            };
            let a = run_datacenter(4, fast_params(), mk(), &small_scenario(7, 1)).unwrap();
            let b = run_datacenter(4, fast_params(), mk(), &small_scenario(7, 1)).unwrap();
            assert_eq!(a, b, "policy {policy} must replay identically");
        }
    }

    #[test]
    fn host_failure_triggers_dr_restore() {
        // Frequent backups so casualties have recent restore points.
        let params = OrchParams {
            backup_interval: Nanoseconds::from_secs(300),
            rebalance_interval: Nanoseconds::from_secs(600),
            ..Default::default()
        };
        let s = small_scenario(5, 2);
        let r = run_datacenter(4, params, Box::new(ThresholdRebalance), &s).unwrap();
        assert!(r.hosts_failed >= 1);
        if r.vms_lost_at_failure > 0 {
            assert!(
                r.vms_restored + r.vms_lost_permanently > 0,
                "casualties must be accounted: {r}"
            );
            assert!(r.vm_time_lost > Nanoseconds::ZERO);
        }
        // Every event was consumed (processed or counted as dropped).
        assert!(r.events_processed > 0);
    }

    #[test]
    fn consolidation_powers_hosts_down() {
        // A lightly loaded cluster: consolidate should park hosts.
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            departure_fraction: 0.0,
            load_changes_per_vm: 0.0,
            ..ScenarioConfig::day(3, WorkloadShape::SteadyState, 6, 6)
        };
        let s = Scenario::generate(cfg).unwrap();
        let r = run_datacenter(6, fast_params(), Box::new(ConsolidateAndPowerDown), &s).unwrap();
        assert!(r.power_off_actions > 0, "idle hosts must be parked: {r}");
        assert!(r.hosts_powered_at_end < 6);
        assert!(r.avg_hosts_powered() < 6.0);
    }

    /// An adaptive-planner day on the default single-spine fabric whose
    /// planner differs from the defaults only where it must for the fabric
    /// backlog to decide: nothing is tiny or dirty-hot, every guest is big,
    /// so each decision is "big-idle" (4-stream pre-copy) when the backlog
    /// is at most `idle_backlog_max` and "default" (1 stream) otherwise.
    fn backlog_planner_day(idle_backlog_max: Nanoseconds) -> OrchReport {
        let specs = (0..4)
            .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
            .collect();
        let params = OrchParams {
            engine: Some(EngineChoice::Auto),
            ..fast_params()
        };
        let mut orch = Orchestrator::new(specs, params, Box::new(SpreadRebalance)).unwrap();
        orch.set_planner(MigrationPlanner {
            tiny_guest_max: rvisor_types::ByteSize::new(0),
            hot_dirty_rate: u64::MAX,
            big_guest_min: rvisor_types::ByteSize::new(1),
            idle_backlog_max,
            ..MigrationPlanner::default()
        });
        orch.run(&small_scenario(7, 1)).unwrap()
    }

    /// Golden report of the backlog-driven planner day, recorded before the
    /// single-spine fabric became a `ClosFabric` preset. A 1 ms threshold
    /// splits the day's 24 decisions between both rungs, so the literal
    /// differs from the all-"big-idle" day a backlog signal stuck at zero
    /// would produce (checked below) as well as from the all-"default" one.
    #[test]
    fn backlog_planner_day_report_is_golden() {
        let r = backlog_planner_day(Nanoseconds::from_millis(1));
        let golden = OrchReport {
            sim_end: Nanoseconds(7_200_000_000_000),
            events_processed: 151,
            events_dropped: 0,
            vms_arrived: 40,
            vms_placed: 40,
            placements_deferred: 0,
            placements_unmet: 0,
            placement_latency_total: Nanoseconds(1_800_000_000_000),
            placement_latency_max: Nanoseconds(45_000_000_000),
            vms_departed: 10,
            vms_running_at_end: 30,
            peak_vms: 30,
            migrations_planned: 24,
            migrations_completed: 24,
            migrations_skipped: 0,
            migration_downtime_total: Nanoseconds(2_482_368),
            migration_time_total: Nanoseconds(9_992_304),
            migration_fabric_wait_total: Nanoseconds(13_189_752),
            migration_bytes: 6_415_920,
            downtime_duration_integral: 1_033_523_987_328,
            planner_decisions: 24,
            planner_stop_and_copy: 0,
            planner_pre_copy: 24,
            planner_post_copy: 0,
            planner_fault_lane: 0,
            backups_taken: 120,
            backup_bytes: 31_521_600,
            backup_time_total: Nanoseconds(567_815_744),
            backup_chunks_shipped: 0,
            backup_chunks_deduped: 0,
            backup_bytes_deduped: 0,
            dr_store_chunks: 0,
            dr_store_bytes: 0,
            hosts_failed: 1,
            spines_failed: 0,
            vms_lost_at_failure: 0,
            vms_restored: 0,
            vms_lost_permanently: 0,
            vm_time_lost: Nanoseconds(0),
            power_on_actions: 0,
            power_off_actions: 0,
            powered_host_time: Nanoseconds(22_939_579_411_265),
            peak_hosts_powered: 3,
            hosts_powered_at_end: 3,
        };
        assert_eq!(r, golden);
        // A backlog that always read zero would make every decision
        // "big-idle": exactly the day with the threshold wide open.
        let always_idle = backlog_planner_day(Nanoseconds(u64::MAX));
        assert_ne!(
            always_idle.migration_time_total,
            golden.migration_time_total
        );
        let never_idle = backlog_planner_day(Nanoseconds::ZERO);
        assert_ne!(never_idle.migration_time_total, golden.migration_time_total);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// No event is lost across HostFailure rescheduling: `run()` itself
        /// enforces queue conservation, and the report's failure accounting
        /// stays consistent while the whole run replays byte-identically.
        #[test]
        fn property_no_event_lost_across_host_failure_rescheduling(
            seed in 0u64..1_000,
            failures in 1usize..4,
        ) {
            let s = small_scenario(seed, failures);
            let scenario_events = s.events.len() as u64;
            // run() hard-fails unless queue.pushed() == queue.popped(), so a
            // returned report *is* the conservation proof; the assertions
            // below pin the accounting side.
            let r = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
            // Scenario events plus self-scheduled ticks/restores all fired.
            prop_assert!(r.events_processed >= scenario_events);
            let (arrivals, _, _, failures_gen) = s.census();
            prop_assert_eq!(r.vms_arrived, arrivals as u64);
            // The generator injects failures on distinct live hosts, so every
            // one of them is honoured (none dropped).
            prop_assert_eq!(r.hosts_failed, failures_gen as u64);
            // Every failure casualty lands in exactly one outcome bucket:
            // restored, permanently lost, or departed while mid-restore.
            prop_assert!(r.vms_restored + r.vms_lost_permanently <= r.vms_lost_at_failure);
            prop_assert!(
                r.vms_lost_at_failure <= r.vms_restored + r.vms_lost_permanently + r.vms_departed
            );
            // And the whole run replays byte-identically.
            let again = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
            prop_assert_eq!(r, again);
        }

        /// A planner-driven day ([`EngineChoice::Auto`]) is as deterministic
        /// as a static one: the planner is a pure function of observables
        /// that are themselves pure functions of the scenario, so the same
        /// seed replays to an `==`-equal report — including the planner
        /// decision counters.
        #[test]
        fn property_adaptive_planner_day_replays_identically(
            seed in 0u64..1_000,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let params = OrchParams {
                engine: Some(EngineChoice::Auto),
                hot_tenant_modulus: std::num::NonZeroU64::new(4),
                ..fast_params()
            };
            let run = || {
                let specs = (0..4)
                    .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
                    .collect();
                let mut orch =
                    Orchestrator::new(specs, params, Box::new(ThresholdRebalance)).unwrap();
                // Thresholds that make every ladder rung reachable at the
                // simulation scale (any observed dirtying counts as hot).
                orch.set_planner(MigrationPlanner {
                    hot_dirty_rate: 1,
                    big_guest_min: rvisor_types::ByteSize::new(1),
                    idle_backlog_max: Nanoseconds::from_millis(1),
                    ..MigrationPlanner::default()
                });
                orch.run(&s).unwrap()
            };
            let r = run();
            if r.migrations_completed > 0 {
                prop_assert!(r.planner_decisions > 0);
            }
            prop_assert_eq!(run(), r);
        }
    }

    #[test]
    fn restore_still_in_flight_at_end_of_day_is_accounted() {
        use rvisor_cluster::{ServerRole, VmSpec};
        // Hand-built scenario: one VM arrives early, its host fails 10 s
        // before the horizon — detection (30 s) alone pushes the restore
        // completion past the end of the day.
        let duration = Nanoseconds::from_secs(3600);
        let config = ScenarioConfig {
            duration,
            ..ScenarioConfig::day(0, WorkloadShape::SteadyState, 2, 1)
        };
        let spec = VmSpec::typical("vm-0000", ServerRole::Web);
        let scenario = Scenario {
            config,
            events: vec![
                (
                    Nanoseconds::from_secs(10),
                    crate::OrchEvent::VmArrival { spec },
                ),
                (
                    Nanoseconds::from_secs(3590),
                    crate::OrchEvent::HostFailure {
                        host: HostId::new(0),
                    },
                ),
            ],
        };
        let params = OrchParams {
            backup_interval: Nanoseconds::from_secs(600),
            ..fast_params()
        };
        let r = run_datacenter(2, params, Box::new(ThresholdRebalance), &scenario).unwrap();
        assert_eq!(r.hosts_failed, 1);
        assert_eq!(r.vms_lost_at_failure, 1);
        assert_eq!(r.vms_restored, 0, "restore cannot finish inside the day");
        assert_eq!(r.vms_lost_permanently, 1, "in-flight restore is accounted");
        assert_eq!(
            r.vm_time_lost,
            Nanoseconds::from_secs(10),
            "outage runs from the failure to the horizon"
        );
        assert_eq!(r.sim_end, duration);
        // Simulated time never ran past the horizon, so the power integral
        // is bounded by hosts x duration.
        assert!(r.powered_host_time.0 <= 2 * duration.0);
    }

    #[test]
    fn backup_still_on_the_wire_is_not_restorable() {
        use rvisor_cluster::{ServerRole, VmSpec};
        use rvisor_net::FabricParams;
        // A crawling fabric: the ~256 KiB snapshot stream needs ~260 s to
        // reach the DR target. The host fails 100 s after the backup tick,
        // while the stream is still on the wire — the VM must be lost, not
        // restored from bytes that never arrived.
        let duration = Nanoseconds::from_secs(3600);
        let config = ScenarioConfig {
            duration,
            ..ScenarioConfig::day(0, WorkloadShape::SteadyState, 2, 1)
        };
        let spec = VmSpec::typical("vm-0000", ServerRole::Web);
        let scenario = Scenario {
            config,
            events: vec![
                (
                    Nanoseconds::from_secs(10),
                    crate::OrchEvent::VmArrival { spec },
                ),
                (
                    Nanoseconds::from_secs(700),
                    crate::OrchEvent::HostFailure {
                        host: HostId::new(0),
                    },
                ),
            ],
        };
        let slow_wire = OrchParams {
            backup_interval: Nanoseconds::from_secs(600),
            fabric: FabricParams {
                nic_bytes_per_second: 1000,
                backbone_bytes_per_second: 1000,
                ..FabricParams::wan()
            },
            ..fast_params()
        };
        let r = run_datacenter(2, slow_wire, Box::new(ThresholdRebalance), &scenario).unwrap();
        assert_eq!(r.hosts_failed, 1);
        assert_eq!(r.vms_lost_at_failure, 1);
        assert_eq!(r.backups_taken, 1, "the 600 s tick streamed one backup");
        assert_eq!(
            r.vms_restored, 0,
            "a backup still crossing the fabric must not be restorable"
        );
        assert_eq!(r.vms_lost_permanently, 1);

        // Control: fail after the stream has arrived and the restore works.
        let spec = VmSpec::typical("vm-0000", ServerRole::Web);
        let late_failure = Scenario {
            config: ScenarioConfig {
                duration,
                ..ScenarioConfig::day(0, WorkloadShape::SteadyState, 2, 1)
            },
            events: vec![
                (
                    Nanoseconds::from_secs(10),
                    crate::OrchEvent::VmArrival { spec },
                ),
                (
                    Nanoseconds::from_secs(1100),
                    crate::OrchEvent::HostFailure {
                        host: HostId::new(0),
                    },
                ),
            ],
        };
        let r = run_datacenter(2, slow_wire, Box::new(ThresholdRebalance), &late_failure).unwrap();
        assert_eq!(r.hosts_failed, 1);
        assert_eq!(
            r.vms_restored, 1,
            "an arrived backup restores as before: {r}"
        );
    }

    #[test]
    fn failed_hosts_are_not_power_manageable() {
        let specs = vec![
            HostSpec::modern_server(HostId::new(0)),
            HostSpec::modern_server(HostId::new(1)),
        ];
        let mut orch =
            Orchestrator::new(specs, fast_params(), Box::new(ThresholdRebalance)).unwrap();
        orch.cluster.fail_host(HostId::new(0)).unwrap();
        assert!(orch.cluster.power_on(HostId::new(0)).is_err());
        assert!(orch.cluster.power_off(HostId::new(0)).is_err());
        // Parked hosts stay idempotently manageable.
        orch.cluster.power_off(HostId::new(1)).unwrap();
        orch.cluster.power_off(HostId::new(1)).unwrap();
        orch.cluster.power_on(HostId::new(1)).unwrap();
    }

    /// The indexed policies drive whole days to the exact reports the
    /// original full-walk implementations produced — the decision-for-
    /// decision equivalence holds under real event-loop dynamics (failures,
    /// deferred placements, power churn), not just on static snapshots.
    #[test]
    fn indexed_policies_match_reference_over_whole_days() {
        use crate::policy::reference;
        let s = small_scenario(11, 2);
        let pairs: [(
            Box<dyn crate::policy::RebalancePolicy>,
            Box<dyn crate::policy::RebalancePolicy>,
        ); 3] = [
            (
                Box::new(ThresholdRebalance),
                Box::new(reference::ThresholdRebalance),
            ),
            (
                Box::new(ConsolidateAndPowerDown),
                Box::new(reference::ConsolidateAndPowerDown),
            ),
            (
                Box::new(SpreadRebalance),
                Box::new(reference::SpreadRebalance),
            ),
        ];
        for (indexed, oracle) in pairs {
            let name = indexed.name();
            let a = run_datacenter(4, fast_params(), indexed, &s).unwrap();
            let b = run_datacenter(4, fast_params(), oracle, &s).unwrap();
            assert_eq!(a, b, "{name} day diverged from the reference policy");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The fidelity dial is invisible in every report field: a day where
        /// every VM carries a live guest from deploy (`Full`, i.e. force-
        /// materialized) reports `==` to the dialed day where VMs start as
        /// statistical models and materialize on first touch.
        #[test]
        fn property_force_materialized_day_equals_dialed_day(
            seed in 0u64..500,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let full = OrchParams {
                fidelity: crate::params::VmFidelity::Full,
                ..fast_params()
            };
            let dialed = OrchParams {
                fidelity: crate::params::VmFidelity::OnDemand,
                ..fast_params()
            };
            let a = run_datacenter(4, full, Box::new(ThresholdRebalance), &s).unwrap();
            let b = run_datacenter(4, dialed, Box::new(ThresholdRebalance), &s).unwrap();
            prop_assert_eq!(a, b);
        }

        /// Deduplicated DR days are pure functions of the scenario too:
        /// same seed, `==` report, across random seeds and failure counts;
        /// the dedup day never ships more backup bytes than the plain day;
        /// and the dedup-off day keeps its counters at zero (the replay
        /// pin for every pre-dedup baseline).
        #[test]
        fn property_dedup_day_replays_and_never_ships_more(
            seed in 0u64..500,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let on = OrchParams {
                dedup_backups: true,
                ..fast_params()
            };
            let a = run_datacenter(4, on, Box::new(ThresholdRebalance), &s).unwrap();
            let b = run_datacenter(4, on, Box::new(ThresholdRebalance), &s).unwrap();
            prop_assert_eq!(&a, &b);
            let off = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
            prop_assert_eq!(off.backup_chunks_shipped, 0);
            prop_assert_eq!(off.backup_chunks_deduped, 0);
            prop_assert_eq!(off.dr_store_bytes, 0);
            prop_assert_eq!(a.backups_taken, off.backups_taken);
            prop_assert!(a.backup_bytes <= off.backup_bytes);
        }

        /// Tracing is a pure observer: a day run with a recording sink
        /// attached to every layer produces an `==`-equal report to the same
        /// day run with tracing off, across random seeds and failure counts
        /// — and actually recorded something.
        #[test]
        fn property_traced_day_report_equals_untraced(
            seed in 0u64..500,
            failures in 0usize..3,
        ) {
            let s = small_scenario(seed, failures);
            let untraced =
                run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
            let (trace, recorder) = Trace::recording();
            let hosts = (0..4).map(|i| HostSpec::modern_server(HostId::new(i))).collect();
            let mut orch =
                Orchestrator::new(hosts, fast_params(), Box::new(ThresholdRebalance)).unwrap();
            orch.set_trace(trace);
            let traced = orch.run(&s).unwrap();
            prop_assert_eq!(untraced, traced);
            prop_assert!(
                !recorder.borrow().events().is_empty(),
                "a traced day must record events"
            );
        }
    }

    /// The deduplicated DR day: strictly fewer backup bytes on the wire,
    /// a store that holds every unique page once, deterministic replay,
    /// and a dedup-off day bit-identical to the default day.
    #[test]
    fn dedup_day_ships_fewer_backup_bytes_and_replays_identically() {
        let s = small_scenario(13, 2);
        let dedup_params = OrchParams {
            dedup_backups: true,
            ..fast_params()
        };
        let plain = run_datacenter(4, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
        let a = run_datacenter(4, dedup_params, Box::new(ThresholdRebalance), &s).unwrap();
        let b = run_datacenter(4, dedup_params, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(a, b, "dedup day must replay identically");

        assert!(a.backups_taken > 0);
        assert_eq!(a.backups_taken, plain.backups_taken);
        assert!(
            a.backup_bytes * 5 <= plain.backup_bytes,
            "dedup must ship at least 5x fewer backup bytes ({} vs {})",
            a.backup_bytes,
            plain.backup_bytes
        );
        assert!(a.backup_chunks_shipped > 0);
        assert!(
            a.backup_chunks_deduped > a.backup_chunks_shipped,
            "most pages of an hourly sweep are already known to the store"
        );
        assert!(a.backup_bytes_deduped > 0);
        assert!(a.dr_store_chunks > 0);
        assert!(
            a.dr_store_bytes < plain.backup_bytes,
            "the store holds unique pages, not the sum of all snapshots"
        );
        assert!(
            a.backup_time_total < plain.backup_time_total,
            "fewer bytes on the wire and fewer bytes written"
        );
        if plain.vms_restored > 0 {
            assert!(
                a.vms_restored > 0,
                "dedup restores must still recover failed VMs"
            );
        }

        // Dedup counters stay zero — and the dedup report line silent —
        // on a dedup-off day, which is bit-identical to the default day.
        let off = OrchParams {
            dedup_backups: false,
            ..fast_params()
        };
        let c = run_datacenter(4, off, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(plain, c);
        assert_eq!(plain.backup_chunks_shipped, 0);
        assert_eq!(plain.dr_store_bytes, 0);
        assert_eq!(format!("{plain}"), format!("{c}"));
        assert!(!format!("{plain}").contains("dedup"));
        assert!(format!("{a}").contains("dedup"));
    }

    /// The fidelity pin holds under dedup: model VMs participate in the
    /// content-addressed store via their canonical deploy state, so a
    /// force-materialized dedup day reports `==` to the dialed one.
    #[test]
    fn dedup_day_fidelity_pin_holds() {
        let s = small_scenario(17, 1);
        let full = OrchParams {
            dedup_backups: true,
            fidelity: crate::params::VmFidelity::Full,
            ..fast_params()
        };
        let dialed = OrchParams {
            dedup_backups: true,
            fidelity: crate::params::VmFidelity::OnDemand,
            ..fast_params()
        };
        let a = run_datacenter(4, full, Box::new(ThresholdRebalance), &s).unwrap();
        let b = run_datacenter(4, dialed, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(a, b, "the fidelity dial must be invisible under dedup");
        assert!(a.backup_chunks_shipped > 0);
    }

    /// The 32-rack Clos acceptance day: identical hosts and scenario, one
    /// run on the degenerate single-spine fabric, one on a two-tier Clos
    /// whose spine tier matches the backbone's aggregate capacity
    /// (4 x 1.25 GB/s = 5 GB/s, non-oversubscribed, same 50 µs latency), so
    /// every individual transfer costs exactly the same — the Clos day wins
    /// purely by eliminating global-backbone serialization: concurrent
    /// migrations and DR streams spread over independent spine paths.
    fn clos_32rack() -> crate::params::FabricTopology {
        crate::params::FabricTopology::Clos {
            racks: 32,
            spines: 4,
            leaf_uplink_bytes_per_second: 2_500_000_000,
            spine_bytes_per_second: 1_250_000_000,
            cross_rack_latency: Nanoseconds::from_micros(50),
        }
    }

    #[test]
    fn topology_aware_clos_day_beats_single_spine_day() {
        use rvisor_cluster::PlacementStrategy;
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(21, WorkloadShape::FlashCrowd, 32, 256)
        };
        let s = Scenario::generate(cfg).unwrap();
        let base = OrchParams {
            placement: PlacementStrategy::Spread,
            migration_streams: std::num::NonZeroUsize::new(4).unwrap(),
            // A tight balance target and a generous per-tick cap keep
            // rebalance migration *bursts* flowing all day, and the backup
            // sweep fires at the same instants — fabric queueing, the thing
            // the Clos tier removes, is what the totals then measure.
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            backup_interval: Nanoseconds::from_secs(600),
            ..fast_params()
        };
        let clos = OrchParams {
            topology: clos_32rack(),
            ..base
        };
        let run = |p: OrchParams| run_datacenter(32, p, Box::new(SpreadRebalance), &s).unwrap();
        let flat_day = run(base);
        let clos_day = run(clos);
        assert!(
            clos_day.migrations_completed > 0,
            "the day must actually migrate: {clos_day}"
        );
        // Total migration duration as the tenant sees it — decision instant
        // to completion, fabric queueing included. The per-transfer rates
        // are identical by construction (both NIC-bound at 1.25 GB/s, same
        // latency); the whole win is eliminated backbone serialization.
        let clos_total = clos_day
            .migration_time_total
            .saturating_add(clos_day.migration_fabric_wait_total);
        let flat_total = flat_day
            .migration_time_total
            .saturating_add(flat_day.migration_fabric_wait_total);
        assert!(
            clos_total < flat_total,
            "Clos migrations must finish earlier in simulated time: {clos_total} vs {flat_total}"
        );
        assert!(
            clos_day.migration_fabric_wait_total < flat_day.migration_fabric_wait_total,
            "the Clos day must queue less for the fabric: {} vs {}",
            clos_day.migration_fabric_wait_total,
            flat_day.migration_fabric_wait_total
        );
        assert!(
            clos_day.backup_time_total < flat_day.backup_time_total,
            "DR backup lag must drop on the Clos fabric: {} vs {}",
            clos_day.backup_time_total,
            flat_day.backup_time_total
        );
        // Both days are pure functions of the scenario.
        assert_eq!(run(base), flat_day);
        assert_eq!(run(clos), clos_day);
    }

    /// The adaptive-control-plane acceptance day (E22): one mixed 32-rack
    /// Clos day, run under every static (engine × streams × compression)
    /// setting and once under the adaptive planner
    /// ([`EngineChoice::Auto`]), all on the same scenario seed. The
    /// adaptive day must come in strictly below every static day on the
    /// downtime × duration integral: it matches the best static choice for
    /// cold guests (wide striped pre-copy with XBZRLE) and upgrades guests
    /// it has *observed* dirtying pages to post-copy over the demand-fault
    /// lane, which no static setting can express.
    #[test]
    fn adaptive_day_beats_every_static_setting() {
        use rvisor_cluster::PlacementStrategy;
        use rvisor_migrate::PageCompression;
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(4 * 3600),
            ..ScenarioConfig::day(22, WorkloadShape::Mixed, 32, 256)
        };
        let s = Scenario::generate(cfg).unwrap();
        let base = OrchParams {
            placement: PlacementStrategy::Spread,
            topology: clos_32rack(),
            spread_utilization_gap: 0.01,
            max_migrations_per_tick: 64,
            backup_interval: Nanoseconds::from_secs(600),
            rebalance_interval: Nanoseconds::from_secs(300),
            // One in four tenants runs the write-heavy canonical workload,
            // so re-migrated guests carry real observed dirty rates for the
            // planner's dirty-hot rung to react to.
            hot_tenant_modulus: std::num::NonZeroU64::new(4),
            ..fast_params()
        };
        let run_static = |engine: EngineChoice, streams: usize, compression: PageCompression| {
            let p = OrchParams {
                engine: Some(engine),
                migration_streams: std::num::NonZeroUsize::new(streams).unwrap(),
                migration_compression: compression,
                ..base
            };
            run_datacenter(32, p, Box::new(SpreadRebalance), &s).unwrap()
        };
        // The planner the adaptive day runs: cold guests get exactly the
        // strongest static treatment (4-stream XBZRLE pre-copy), observed
        // dirty-hot guests get the fault lane. Thresholds are tuned to the
        // simulation scale (every live guest carries `guest_memory` bytes,
        // so the spec-size rungs are pinned open/closed).
        let run_adaptive = || {
            let p = OrchParams {
                engine: Some(EngineChoice::Auto),
                ..base
            };
            let specs = (0..32)
                .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
                .collect();
            let mut orch = Orchestrator::new(specs, p, Box::new(SpreadRebalance)).unwrap();
            orch.set_planner(MigrationPlanner {
                tiny_guest_max: rvisor_types::ByteSize::new(0),
                hot_dirty_rate: 1,
                big_guest_min: rvisor_types::ByteSize::new(1),
                idle_backlog_max: Nanoseconds(u64::MAX),
                wide_streams: std::num::NonZeroUsize::new(4).unwrap(),
                compression: PageCompression::Xbzrle,
            });
            orch.run(&s).unwrap()
        };
        let adaptive = run_adaptive();
        assert!(
            adaptive.migrations_completed > 0,
            "the day must actually migrate: {adaptive}"
        );
        // The strict win comes from upgrades no static setting can express:
        // guests the planner has *observed* dirtying pages go post-copy over
        // the demand-fault lane on their next migration.
        assert!(
            adaptive.planner_fault_lane > 0,
            "observed dirty-hot guests must ride the fault lane: {adaptive}"
        );
        // Every executed migration consulted the planner (skipped decisions
        // may consult it without completing).
        assert!(adaptive.planner_decisions >= adaptive.migrations_completed);
        for engine in [
            EngineChoice::StopAndCopy,
            EngineChoice::PreCopy,
            EngineChoice::PostCopy,
        ] {
            for streams in [1usize, 4] {
                // Compression is a pre-copy knob: stop-and-copy and
                // post-copy move raw pages, so their XBZRLE days are
                // bit-identical to their raw days and add nothing to the
                // grid.
                let compressions: &[PageCompression] = if engine == EngineChoice::PreCopy {
                    &[PageCompression::None, PageCompression::Xbzrle]
                } else {
                    &[PageCompression::None]
                };
                for &compression in compressions {
                    let r = run_static(engine, streams, compression);
                    // Identical policy inputs: every setting migrates the
                    // same VMs, so the integral compares like for like.
                    assert_eq!(r.migrations_completed, adaptive.migrations_completed);
                    assert!(
                        adaptive.downtime_duration_integral < r.downtime_duration_integral,
                        "adaptive day must beat static {engine:?} x{streams} {compression:?}: \
                         {} vs {}",
                        adaptive.downtime_duration_integral,
                        r.downtime_duration_integral
                    );
                }
            }
        }
        // The adaptive day is still a pure function of the scenario.
        assert_eq!(run_adaptive(), adaptive);
    }

    #[test]
    fn spine_failure_day_degrades_and_replays() {
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(13, WorkloadShape::SteadyState, 16, 80)
        }
        .with_spine_failures(2, 4);
        let s = Scenario::generate(cfg).unwrap();
        let clos = OrchParams {
            topology: clos_32rack(),
            ..fast_params()
        };
        let r = run_datacenter(16, clos, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(r.spines_failed, 2, "both injected spine failures honoured");
        let again = run_datacenter(16, clos, Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(r, again, "a degraded day still replays identically");
        // The same scenario on the single-spine topology refuses the spine
        // failures (failing the only spine would partition) and counts them
        // as dropped — never an error, never a partition.
        let flat = run_datacenter(16, fast_params(), Box::new(ThresholdRebalance), &s).unwrap();
        assert_eq!(flat.spines_failed, 0);
        assert!(flat.events_dropped >= 2);
    }

    #[test]
    fn hot_spine_defer_day_is_deterministic() {
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(17, WorkloadShape::FlashCrowd, 16, 120)
        };
        let s = Scenario::generate(cfg).unwrap();
        let deferring = OrchParams {
            topology: clos_32rack(),
            hot_spine_defer: Some(Nanoseconds::ZERO),
            ..fast_params()
        };
        let run = || run_datacenter(16, deferring, Box::new(ThresholdRebalance), &s).unwrap();
        let r = run();
        // Deferred migrations are accounted as skips, never lost, and the
        // deferring day replays byte-identically.
        assert_eq!(
            r.migrations_planned,
            r.migrations_completed + r.migrations_skipped
        );
        assert_eq!(run(), r);
    }

    /// A reduced on-demand DR day: 64 hosts, 2k arrivals, two host
    /// failures (so restores read DR state after the VM's host is gone),
    /// spread placement and rebalancing (so some VMs materialize and back
    /// up as stored snapshots while the rest stay canonical models).
    fn ondemand_dr_day(dedup_backups: bool) -> OrchReport {
        use rvisor_cluster::PlacementStrategy;
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(6 * 3600),
            ..ScenarioConfig::day(0x60_1d, WorkloadShape::DiurnalWave, 64, 2_000)
        }
        .with_host_failures(2);
        let s = Scenario::generate(cfg).unwrap();
        let params = OrchParams {
            placement: PlacementStrategy::Spread,
            fidelity: crate::params::VmFidelity::OnDemand,
            guest_memory: crate::params::MIN_GUEST_MEMORY,
            spread_utilization_gap: 0.05,
            dedup_backups,
            backup_interval: Nanoseconds::from_secs(1800),
            ..fast_params()
        };
        run_datacenter(64, params, Box::new(SpreadRebalance), &s).unwrap()
    }

    /// Both DR modes of [`ondemand_dr_day`] reproduce the reports captured
    /// before per-VM state was keyed by [`crate::VmKey`]: the dense-key
    /// bookkeeping (backup sweeps, chains, restores after a failure) must
    /// not move a single simulated figure.
    #[test]
    fn ondemand_dr_day_report_is_golden() {
        let plain = OrchReport {
            sim_end: Nanoseconds(21600000000000),
            events_processed: 6658,
            events_dropped: 11,
            vms_arrived: 2000,
            vms_placed: 2000,
            placements_deferred: 0,
            placements_unmet: 0,
            placement_latency_total: Nanoseconds(90000000000000),
            placement_latency_max: Nanoseconds(45000000000),
            vms_departed: 606,
            vms_running_at_end: 1390,
            peak_vms: 1447,
            migrations_planned: 100,
            migrations_completed: 100,
            migrations_skipped: 0,
            migration_downtime_total: Nanoseconds(10343200),
            migration_time_total: Nanoseconds(25675300),
            migration_fabric_wait_total: Nanoseconds(30392691),
            migration_bytes: 6995400,
            downtime_duration_integral: 2655647629600,
            planner_decisions: 0,
            planner_stop_and_copy: 0,
            planner_pre_copy: 0,
            planner_post_copy: 0,
            planner_fault_lane: 0,
            backups_taken: 9517,
            backup_bytes: 628807224,
            backup_time_total: Nanoseconds(312656979923),
            backup_chunks_shipped: 0,
            backup_chunks_deduped: 0,
            backup_bytes_deduped: 0,
            dr_store_chunks: 0,
            dr_store_bytes: 0,
            hosts_failed: 2,
            spines_failed: 0,
            vms_lost_at_failure: 32,
            vms_restored: 27,
            vms_lost_permanently: 4,
            vm_time_lost: Nanoseconds(92557761558151),
            power_on_actions: 0,
            power_off_actions: 0,
            powered_host_time: Nanoseconds(1359927800416752),
            peak_hosts_powered: 63,
            hosts_powered_at_end: 62,
        };
        assert_eq!(ondemand_dr_day(false), plain);
        let dedup = OrchReport {
            backup_bytes: 72487946,
            backup_time_total: Nanoseconds(39574026593),
            backup_chunks_shipped: 7838,
            backup_chunks_deduped: 25234,
            backup_bytes_deduped: 103358464,
            dr_store_chunks: 5486,
            dr_store_bytes: 22470656,
            vm_time_lost: Nanoseconds(92557766628028),
            ..plain
        };
        assert_eq!(ondemand_dr_day(true), dedup);
    }

    #[test]
    fn pending_placement_waits_for_capacity() {
        // One tiny host cannot take the whole fleet at once.
        let specs = vec![HostSpec::deck_era_server(HostId::new(0))];
        let cfg = ScenarioConfig {
            duration: Nanoseconds::from_secs(3600),
            departure_fraction: 0.9,
            ..ScenarioConfig::day(9, WorkloadShape::FlashCrowd, 1, 30)
        };
        let s = Scenario::generate(cfg).unwrap();
        let orch = Orchestrator::new(specs, fast_params(), Box::new(ThresholdRebalance)).unwrap();
        let r = orch.run(&s).unwrap();
        assert!(r.placements_deferred > 0, "flash crowd must overflow: {r}");
        // Deferred VMs either landed later or are still waiting — all counted.
        assert_eq!(r.vms_arrived, 30);
        assert!(r.vms_placed + r.placements_unmet + r.vms_departed >= 30 - r.events_dropped);
    }
}

//! Pluggable rebalance policies.
//!
//! On every [`OrchEvent::RebalanceTick`](crate::OrchEvent::RebalanceTick) the
//! orchestrator hands the current cluster state to its [`RebalancePolicy`],
//! which returns a [`RebalancePlan`] — migrations to start and hosts to power
//! on or off. Policies *plan* against a capacity shadow (so multi-move plans
//! stay feasible) and never mutate the cluster; execution, error handling and
//! SLA accounting stay in the orchestrator.
//!
//! Three policies ship with the crate:
//!
//! * [`ThresholdRebalance`] — classic hotspot relief: drain VMs off hosts
//!   above `overload_cpu_threshold` onto the least-loaded hosts with room.
//! * [`ConsolidateAndPowerDown`] — energy-driven: evacuate hosts below
//!   `underload_cpu_threshold` into the rest of the fleet and power the
//!   empties down.
//! * [`SpreadRebalance`] — latency-driven: keep the CPU-utilization gap
//!   between the hottest and coldest powered host under
//!   `spread_utilization_gap`.
//!
//! # Incremental evaluation
//!
//! A quiet tick — no host over the overload bar, none under the underload
//! bar, spread gap inside tolerance — is decided in O(log hosts) from the
//! cluster's utilization index without visiting a single host. Active ticks
//! plan against a `View`: a lazy overlay on the same index that
//! materializes per-host shadows only for the hosts a plan actually touches,
//! so a tick's cost scales with the plan, not the fleet. The decisions are
//! *bit-for-bit identical* to the original full-walk implementation (kept
//! under `#[cfg(test)]` as `reference` and pinned by an equivalence test):
//! every comparator, tie-break and floating-point operation order is
//! preserved exactly.

use std::collections::{BTreeMap, BTreeSet};

use rvisor_types::HostId;

use crate::cluster::{key_util, util_key, Cluster, HostPower, OrchHost};
use crate::params::{EngineChoice, OrchParams};

/// One planned migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationDecision {
    /// Which VM to move.
    pub vm: String,
    /// Destination host.
    pub to: HostId,
    /// Engine selector (policies pick stop-and-copy for non-running
    /// guests; [`EngineChoice::Auto`] defers to the adaptive planner at
    /// execution time).
    pub engine: EngineChoice,
}

/// Everything a policy wants done this tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Migrations, in execution order.
    pub migrations: Vec<MigrationDecision>,
    /// Hosts to power on *before* the migrations run.
    pub power_on: Vec<HostId>,
    /// Hosts to power off *after* the migrations run (must end up empty).
    pub power_off: Vec<HostId>,
}

impl RebalancePlan {
    /// Whether the plan does anything at all.
    pub fn is_empty(&self) -> bool {
        self.migrations.is_empty() && self.power_on.is_empty() && self.power_off.is_empty()
    }
}

/// Why a policy (or the orchestrator itself) decided to move a VM.
///
/// Typed reason codes attached to every policy-decision trace instant, so a
/// trace answers "why this VM, why this host" without reverse-engineering the
/// policy from utilization numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Source host was over the overload CPU threshold; hotspot relief.
    Overload,
    /// Source host was under the underload threshold; evacuate and power off.
    Consolidation,
    /// Hottest-to-coldest utilization gap exceeded the spread tolerance.
    SpreadGap,
    /// A host failed and the VM is being restored from its DR backup.
    FailureRecovery,
    /// The policy did not report a more specific cause.
    Unspecified,
}

impl DecisionReason {
    /// Stable label used in trace event arguments.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionReason::Overload => "overload",
            DecisionReason::Consolidation => "consolidation",
            DecisionReason::SpreadGap => "spread-gap",
            DecisionReason::FailureRecovery => "failure-recovery",
            DecisionReason::Unspecified => "unspecified",
        }
    }
}

/// A rebalancing strategy consulted on every rebalance tick.
pub trait RebalancePolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Produce a plan for the current cluster state. Must not assume the
    /// orchestrator executes every entry (capacity may shift under it).
    fn plan(&self, cluster: &Cluster, params: &OrchParams) -> RebalancePlan;

    /// Why this policy migrates VMs — attached to every decision the
    /// orchestrator traces. Policies with one motive override this once;
    /// the default keeps third-party policies source-compatible.
    fn reason(&self) -> DecisionReason {
        DecisionReason::Unspecified
    }
}

/// Engine for moving `vm` off `from`: live pre/post-copy for running guests,
/// stop-and-copy when the guest is paused or already halted (nothing is
/// executing, so downtime is free anyway).
///
/// A still-modeled VM (fidelity dial) stands for a live, *running* tenant:
/// deployed guests only ever execute inside migration rounds, so a VM the
/// orchestrator has never touched is exactly as "running" as its
/// materialized twin. Treating it otherwise would let the fidelity dial
/// change policy decisions.
fn engine_for(cluster: &Cluster, from: HostId, vm: &str, params: &OrchParams) -> EngineChoice {
    let Some(pos) = cluster.position_of(from) else {
        return EngineChoice::StopAndCopy;
    };
    let host = cluster.host_at(pos);
    let running = host.is_model(vm)
        || host
            .vmm()
            .find_vm(vm)
            .and_then(|id| host.vmm().lifecycle_of(id).ok())
            .is_some_and(|lc| lc == rvisor::VmLifecycle::Running);
    if running {
        params.engine.unwrap_or_default()
    } else {
        EngineChoice::StopAndCopy
    }
}

/// Mutable capacity image of one host a plan has touched.
struct ShadowHost {
    powered: bool,
    cores: f64,
    mem_capacity: u64,
    cpu_committed: f64,
    mem_committed: u64,
    /// `(name, cpu_demand_cores, memory_bytes)` per placed VM.
    vms: Vec<(String, f64, u64)>,
}

impl ShadowHost {
    fn util(&self) -> f64 {
        self.cpu_committed / self.cores
    }
}

/// Lazy planning overlay on the cluster's utilization index.
///
/// Untouched hosts are read straight from the cluster's cached sums and its
/// `(util_key, id)` index; a host is materialized into a [`ShadowHost`] (and
/// its index entry moved into a private overlay) only when a planned move or
/// power change alters it. Ordered scans merge the base index (minus touched
/// hosts) with the overlay, so they see exactly the shadow state the
/// original full-copy implementation would.
struct View<'c> {
    cluster: &'c Cluster,
    touched: BTreeMap<HostId, ShadowHost>,
    /// Current `(util_key, id)` of touched hosts that are still powered.
    overlay: BTreeSet<(u64, HostId)>,
}

impl<'c> View<'c> {
    fn new(cluster: &'c Cluster) -> Self {
        View {
            cluster,
            touched: BTreeMap::new(),
            overlay: BTreeSet::new(),
        }
    }

    fn host(&self, id: HostId) -> &'c OrchHost {
        self.cluster
            .host_at(self.cluster.position_of(id).expect("planned host exists"))
    }

    /// Materialize `id`'s shadow (no-op if already touched), moving its
    /// index entry from the base set into the overlay.
    fn touch(&mut self, id: HostId) {
        if self.touched.contains_key(&id) {
            return;
        }
        let h = self.host(id);
        let shadow = ShadowHost {
            powered: h.power() == HostPower::On,
            cores: h.cores_f64(),
            mem_capacity: h.mem_capacity_cached(),
            cpu_committed: h.cpu_committed_cached(),
            mem_committed: h.mem_committed_cached(),
            vms: h
                .accounting()
                .placed
                .iter()
                .map(|s| (s.name.clone(), s.cpu_demand_cores, s.memory.as_u64()))
                .collect(),
        };
        if shadow.powered {
            self.overlay.insert((util_key(shadow.util()), id));
        }
        self.touched.insert(id, shadow);
    }

    fn util(&self, id: HostId) -> f64 {
        match self.touched.get(&id) {
            Some(s) => s.util(),
            None => self.host(id).cpu_utilization(),
        }
    }

    fn cores(&self, id: HostId) -> f64 {
        match self.touched.get(&id) {
            Some(s) => s.cores,
            None => self.host(id).cores_f64(),
        }
    }

    fn mem_capacity(&self, id: HostId) -> u64 {
        match self.touched.get(&id) {
            Some(s) => s.mem_capacity,
            None => self.host(id).mem_capacity_cached(),
        }
    }

    fn powered(&self, id: HostId) -> bool {
        match self.touched.get(&id) {
            Some(s) => s.powered,
            None => self.host(id).power() == HostPower::On,
        }
    }

    /// Shadow `(cpu_committed, mem_committed)`.
    fn cpu_mem(&self, id: HostId) -> (f64, u64) {
        match self.touched.get(&id) {
            Some(s) => (s.cpu_committed, s.mem_committed),
            None => {
                let h = self.host(id);
                (h.cpu_committed_cached(), h.mem_committed_cached())
            }
        }
    }

    /// Same predicate as the original `Shadow::fits`.
    fn fits(&self, id: HostId, demand: f64, mem: u64) -> bool {
        let (cpu, m) = self.cpu_mem(id);
        self.powered(id) && cpu + demand <= self.cores(id) && m + mem <= self.mem_capacity(id)
    }

    fn vms_len(&self, id: HostId) -> usize {
        match self.touched.get(&id) {
            Some(s) => s.vms.len(),
            None => self.host(id).accounting().placed.len(),
        }
    }

    fn vm(&self, id: HostId, idx: usize) -> (&str, f64, u64) {
        match self.touched.get(&id) {
            Some(s) => {
                let v = &s.vms[idx];
                (v.0.as_str(), v.1, v.2)
            }
            None => {
                let s = &self.host(id).accounting().placed[idx];
                (s.name.as_str(), s.cpu_demand_cores, s.memory.as_u64())
            }
        }
    }

    fn vm_owned(&self, id: HostId, idx: usize) -> (String, f64, u64) {
        let (n, d, m) = self.vm(id, idx);
        (n.to_string(), d, m)
    }

    /// All powered shadow hosts, ascending `(util_key, id)`.
    fn powered_ascending(&self) -> impl Iterator<Item = (u64, HostId)> + '_ {
        let touched = &self.touched;
        let mut base = self
            .cluster
            .util_index()
            .iter()
            .copied()
            .filter(move |(_, id)| !touched.contains_key(id))
            .peekable();
        let mut over = self.overlay.iter().copied().peekable();
        std::iter::from_fn(move || match (base.peek(), over.peek()) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    base.next()
                } else {
                    over.next()
                }
            }
            (Some(_), None) => base.next(),
            (None, _) => over.next(),
        })
    }

    /// All powered shadow hosts, descending `(util_key, id)`.
    fn powered_descending(&self) -> impl Iterator<Item = (u64, HostId)> + '_ {
        let touched = &self.touched;
        let mut base = self
            .cluster
            .util_index()
            .iter()
            .rev()
            .copied()
            .filter(move |(_, id)| !touched.contains_key(id))
            .peekable();
        let mut over = self.overlay.iter().rev().copied().peekable();
        std::iter::from_fn(move || match (base.peek(), over.peek()) {
            (Some(&x), Some(&y)) => {
                if x >= y {
                    base.next()
                } else {
                    over.next()
                }
            }
            (Some(_), None) => base.next(),
            (None, _) => over.next(),
        })
    }

    /// Maximum-utilization powered host, ties broken toward the smallest
    /// id — the `max_by((util).partial_cmp.then(id-reversed))` winner.
    fn hottest(&self) -> Option<HostId> {
        let mut it = self.powered_descending();
        let (top, mut best) = it.next()?;
        for (k, id) in it {
            if k != top {
                break;
            }
            best = best.min(id);
        }
        Some(best)
    }

    /// [`Self::hottest`] if its utilization strictly exceeds `bar`.
    fn hottest_over(&self, bar: f64) -> Option<HostId> {
        let (top, _) = self.powered_descending().next()?;
        if key_util(top) > bar {
            self.hottest()
        } else {
            None
        }
    }

    /// Minimum-utilization powered host, ties toward the smallest id.
    fn coldest(&self) -> Option<HostId> {
        self.powered_ascending().next().map(|(_, id)| id)
    }

    /// The rack a host lives in (0 on single-rack topologies).
    fn rack(&self, id: HostId) -> usize {
        self.cluster.rack_of_id(id).unwrap_or(0)
    }

    /// [`Self::coldest`], preferring a host in `hot`'s rack among the
    /// equally-coldest candidates so the spread policy's move stays
    /// rack-local (and off the spine tier) when it can. Reduces exactly to
    /// [`Self::coldest`] on a single-rack topology.
    fn coldest_preferring_rack(&self, hot: HostId) -> Option<HostId> {
        if self.cluster.racks() <= 1 {
            return self.coldest();
        }
        let hot_rack = self.rack(hot);
        let mut it = self.powered_ascending();
        let (low, first) = it.next()?;
        if self.rack(first) == hot_rack {
            return Some(first);
        }
        for (k, id) in it {
            if k != low {
                break;
            }
            if self.rack(id) == hot_rack {
                return Some(id);
            }
        }
        Some(first)
    }

    /// Coolest powered host `!= src` that fits the VM and stays strictly
    /// under `bar` — the threshold policy's
    /// `min_by((util).partial_cmp.then(id))` over its filter, found by an
    /// ascending scan that stops at the bar. On a multi-rack topology the
    /// tie between equally-cool fitting hosts breaks toward `src`'s rack,
    /// keeping hotspot-relief migrations off the spine tier; on one rack
    /// the first fitting host wins outright (bit-identical to the
    /// reference walk).
    fn threshold_dest(&self, src: HostId, demand: f64, mem: u64, bar: f64) -> Option<HostId> {
        let src_rack = (self.cluster.racks() > 1).then(|| self.rack(src));
        let mut it = self.powered_ascending();
        while let Some((k, id)) = it.next() {
            if key_util(k) >= bar {
                return None;
            }
            if id == src {
                continue;
            }
            if !self.fits(id, demand, mem) {
                continue;
            }
            let Some(rack) = src_rack else {
                return Some(id);
            };
            if self.rack(id) == rack {
                return Some(id);
            }
            // Scan the rest of this utilization-key run for a fitting
            // same-rack host; fall back to the first fit.
            for (k2, id2) in it {
                if k2 != k {
                    break;
                }
                if id2 != src && self.rack(id2) == rack && self.fits(id2, demand, mem) {
                    return Some(id2);
                }
            }
            return Some(id);
        }
        None
    }

    /// Warmest feasible destination for one consolidation move: the
    /// original `max_by((trial-util).partial_cmp.then(id-reversed))` over
    /// all hosts, split into the (few) hosts holding tentative moves from
    /// `trial` and an index scan over the rest that stops after the first
    /// feasible utilization run.
    fn consolidate_dest(
        &self,
        src: HostId,
        demand: f64,
        mem: u64,
        bar: f64,
        trial: &BTreeMap<HostId, (f64, u64)>,
    ) -> Option<HostId> {
        let mut best: Option<(f64, HostId)> = None;
        // On a multi-rack topology, equal-utilization ties prefer a host in
        // the evacuated host's rack (rack-local consolidation stays off the
        // spine tier) before falling back to the id order; on one rack the
        // original `id < bid` tie-break is untouched.
        let src_rack = (self.cluster.racks() > 1).then(|| self.rack(src));
        let consider = |util: f64, id: HostId, best: &mut Option<(f64, HostId)>| {
            let better = match *best {
                None => true,
                Some((bu, bid)) => match util.partial_cmp(&bu).expect("utilization is never NaN") {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => match src_rack {
                        Some(rack) => {
                            let id_local = self.rack(id) == rack;
                            let bid_local = self.rack(bid) == rack;
                            if id_local != bid_local {
                                id_local
                            } else {
                                id < bid
                            }
                        }
                        None => id < bid,
                    },
                    std::cmp::Ordering::Less => false,
                },
            };
            if better {
                *best = Some((util, id));
            }
        };
        for (&id, &(cpu, m)) in trial {
            if id == src || !self.powered(id) {
                continue;
            }
            let cores = self.cores(id);
            if cpu + demand <= cores * bar && m + mem <= self.mem_capacity(id) {
                consider(cpu / cores, id, &mut best);
            }
        }
        // Untrialed hosts carry their shadow utilization as their trial
        // utilization, so the warmest feasible one lives in the first
        // feasible key run of the descending index.
        let mut run_key: Option<u64> = None;
        for (k, id) in self.powered_descending() {
            if let Some(rk) = run_key {
                if k != rk {
                    break;
                }
            }
            if id == src || trial.contains_key(&id) {
                continue;
            }
            let (cpu, m) = self.cpu_mem(id);
            if cpu + demand <= self.cores(id) * bar && m + mem <= self.mem_capacity(id) {
                consider(key_util(k), id, &mut best);
                run_key = Some(k);
            }
        }
        best.map(|(_, id)| id)
    }

    /// Mirror of the original `shadow_move`, same operation order.
    fn apply_move(&mut self, from: HostId, to: HostId, vm_idx: usize) {
        debug_assert_ne!(from, to);
        self.touch(from);
        self.touch(to);
        let from_key = (util_key(self.touched[&from].util()), from);
        let to_key = (util_key(self.touched[&to].util()), to);
        self.overlay.remove(&from_key);
        self.overlay.remove(&to_key);
        let (name, demand, mem) = {
            let s = self.touched.get_mut(&from).expect("touched");
            let v = s.vms.remove(vm_idx);
            s.cpu_committed -= v.1;
            s.mem_committed -= v.2;
            v
        };
        {
            let s = self.touched.get_mut(&to).expect("touched");
            s.cpu_committed += demand;
            s.mem_committed += mem;
            s.vms.push((name, demand, mem));
        }
        let s = &self.touched[&from];
        if s.powered {
            self.overlay.insert((util_key(s.util()), from));
        }
        let s = &self.touched[&to];
        if s.powered {
            self.overlay.insert((util_key(s.util()), to));
        }
    }

    /// Mark a host unpowered in the shadow (evacuated-and-powered-down).
    fn set_unpowered(&mut self, id: HostId) {
        self.touch(id);
        let s = self.touched.get_mut(&id).expect("touched");
        if !s.powered {
            return;
        }
        s.powered = false;
        let key = (util_key(s.util()), id);
        self.overlay.remove(&key);
    }
}

/// Drain VMs off overloaded hosts onto the least-loaded hosts with room.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThresholdRebalance;

impl RebalancePolicy for ThresholdRebalance {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn reason(&self) -> DecisionReason {
        DecisionReason::Overload
    }

    fn plan(&self, cluster: &Cluster, params: &OrchParams) -> RebalancePlan {
        let mut plan = RebalancePlan::default();
        // Quiet tick: nothing over the bar — decided from the index max.
        match cluster.util_index().iter().next_back() {
            Some(&(k, _)) if key_util(k) > params.overload_cpu_threshold => {}
            _ => return plan,
        }
        let mut view = View::new(cluster);
        for _ in 0..params.max_migrations_per_tick {
            // Hottest overloaded host.
            let Some(src) = view.hottest_over(params.overload_cpu_threshold) else {
                break;
            };
            // Its most demanding VM that fits somewhere cooler.
            let mut order: Vec<usize> = (0..view.vms_len(src)).collect();
            order.sort_by(|&a, &b| {
                let va = view.vm(src, a);
                let vb = view.vm(src, b);
                vb.1.partial_cmp(&va.1)
                    .expect("demand is never NaN")
                    .then(va.0.cmp(vb.0))
            });
            let mut moved = false;
            for vm_idx in order {
                let (name, demand, mem) = view.vm_owned(src, vm_idx);
                if let Some(dst) =
                    view.threshold_dest(src, demand, mem, params.overload_cpu_threshold)
                {
                    plan.migrations.push(MigrationDecision {
                        vm: name.clone(),
                        to: dst,
                        engine: engine_for(cluster, src, &name, params),
                    });
                    view.apply_move(src, dst, vm_idx);
                    moved = true;
                    break;
                }
            }
            if !moved {
                break; // nothing movable: stop planning this tick
            }
        }
        plan
    }
}

/// Evacuate underloaded hosts and power them down.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConsolidateAndPowerDown;

impl RebalancePolicy for ConsolidateAndPowerDown {
    fn name(&self) -> &'static str {
        "consolidate-power-down"
    }

    fn reason(&self) -> DecisionReason {
        DecisionReason::Consolidation
    }

    fn plan(&self, cluster: &Cluster, params: &OrchParams) -> RebalancePlan {
        let mut plan = RebalancePlan::default();
        // Quiet tick: coldest powered host not under the bar.
        match cluster.util_index().iter().next() {
            Some(&(k, _)) if key_util(k) < params.underload_cpu_threshold => {}
            _ => return plan,
        }
        let mut view = View::new(cluster);
        // Coldest first: the cheapest host to evacuate. The ascending index
        // prefix is exactly the old `(util, id)`-sorted source list.
        let sources: Vec<HostId> = cluster
            .util_index()
            .iter()
            .take_while(|&&(k, _)| key_util(k) < params.underload_cpu_threshold)
            .map(|&(_, id)| id)
            .collect();

        for src in sources {
            if plan.migrations.len() >= params.max_migrations_per_tick {
                break;
            }
            let n_vms = view.vms_len(src);
            if plan.migrations.len() + n_vms > params.max_migrations_per_tick {
                continue; // cannot finish the evacuation this tick; skip
            }
            // Tentatively rehome every VM; all must fit or none move.
            let mut moves: Vec<(usize, HostId)> = Vec::new(); // (vm_idx snapshotted order, dst)
            let mut trial: BTreeMap<HostId, (f64, u64)> = BTreeMap::new();
            let mut feasible = true;
            for vm_idx in 0..n_vms {
                let (_, demand, mem) = view.vm(src, vm_idx);
                // Warmest destination that still stays under the overload bar.
                let dest =
                    view.consolidate_dest(src, demand, mem, params.overload_cpu_threshold, &trial);
                match dest {
                    Some(dst) => {
                        let slot = trial.entry(dst).or_insert_with(|| view.cpu_mem(dst));
                        slot.0 += demand;
                        slot.1 += mem;
                        moves.push((vm_idx, dst));
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            // Commit: highest index first so removals don't shift earlier ones.
            moves.sort_by_key(|m| std::cmp::Reverse(m.0));
            for (vm_idx, dst) in moves {
                let name = view.vm(src, vm_idx).0.to_string();
                plan.migrations.push(MigrationDecision {
                    vm: name.clone(),
                    to: dst,
                    engine: engine_for(cluster, src, &name, params),
                });
                view.apply_move(src, dst, vm_idx);
            }
            plan.power_off.push(src);
            // An evacuated host must not become a destination later in the
            // same plan.
            view.set_unpowered(src);
        }
        plan
    }
}

/// Keep the hottest-to-coldest utilization gap bounded.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpreadRebalance;

impl RebalancePolicy for SpreadRebalance {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn reason(&self) -> DecisionReason {
        DecisionReason::SpreadGap
    }

    fn plan(&self, cluster: &Cluster, params: &OrchParams) -> RebalancePlan {
        let mut plan = RebalancePlan::default();
        // Quiet tick: fewer than two powered hosts, or extremes within the
        // tolerated gap — both read off the index ends.
        {
            let idx = cluster.util_index();
            if idx.len() < 2 {
                return plan;
            }
            let &(hi, _) = idx.iter().next_back().expect("len >= 2");
            let &(lo, _) = idx.iter().next().expect("len >= 2");
            if key_util(hi) - key_util(lo) <= params.spread_utilization_gap {
                return plan;
            }
        }
        // Spread never powers hosts up or down, so the powered count is
        // fixed for the whole planning pass.
        let powered = cluster.util_index().len();
        let mut view = View::new(cluster);
        for _ in 0..params.max_migrations_per_tick {
            if powered < 2 {
                break;
            }
            let hot = view.hottest().expect("powered >= 2");
            let cold = view.coldest_preferring_rack(hot).expect("powered >= 2");
            let gap = view.util(hot) - view.util(cold);
            if gap <= params.spread_utilization_gap {
                break;
            }
            // Smallest VM on the hot host that (a) fits on the cold one and
            // (b) actually narrows the gap instead of swapping it.
            let mut order: Vec<usize> = (0..view.vms_len(hot)).collect();
            order.sort_by(|&a, &b| {
                let va = view.vm(hot, a);
                let vb = view.vm(hot, b);
                va.1.partial_cmp(&vb.1)
                    .expect("demand is never NaN")
                    .then(va.0.cmp(vb.0))
            });
            let candidate = order.into_iter().find(|&vm_idx| {
                let (_, demand, mem) = view.vm(hot, vm_idx);
                view.fits(cold, demand, mem)
                    && (demand / view.cores(hot) + demand / view.cores(cold)) < gap
            });
            match candidate {
                Some(vm_idx) => {
                    let name = view.vm(hot, vm_idx).0.to_string();
                    plan.migrations.push(MigrationDecision {
                        vm: name.clone(),
                        to: cold,
                        engine: engine_for(cluster, hot, &name, params),
                    });
                    view.apply_move(hot, cold, vm_idx);
                }
                None => break,
            }
        }
        plan
    }
}

/// The original full-walk policy implementations, kept verbatim as the
/// equivalence oracle for the indexed ones above.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Mutable capacity image used while building multi-move plans.
    struct Shadow {
        id: HostId,
        powered: bool,
        cores: f64,
        mem_capacity: u64,
        cpu_committed: f64,
        mem_committed: u64,
        /// `(name, cpu_demand_cores, memory_bytes)` per placed VM.
        vms: Vec<(String, f64, u64)>,
    }

    impl Shadow {
        fn util(&self) -> f64 {
            self.cpu_committed / self.cores
        }

        fn fits(&self, demand: f64, mem: u64) -> bool {
            self.powered
                && self.cpu_committed + demand <= self.cores
                && self.mem_committed + mem <= self.mem_capacity
        }
    }

    fn shadows(cluster: &Cluster) -> Vec<Shadow> {
        cluster
            .hosts()
            .iter()
            .map(|h| Shadow {
                id: h.id(),
                powered: h.power() == HostPower::On,
                cores: h.accounting().spec.cores as f64,
                mem_capacity: h.accounting().memory_capacity().as_u64(),
                cpu_committed: h.accounting().cpu_committed(),
                mem_committed: h.accounting().memory_committed().as_u64(),
                vms: h
                    .accounting()
                    .placed
                    .iter()
                    .map(|s| (s.name.clone(), s.cpu_demand_cores, s.memory.as_u64()))
                    .collect(),
            })
            .collect()
    }

    /// Apply one planned move to the shadow image.
    fn shadow_move(shadows: &mut [Shadow], from_idx: usize, to_idx: usize, vm_idx: usize) {
        let (name, demand, mem) = shadows[from_idx].vms.remove(vm_idx);
        shadows[from_idx].cpu_committed -= demand;
        shadows[from_idx].mem_committed -= mem;
        shadows[to_idx].cpu_committed += demand;
        shadows[to_idx].mem_committed += mem;
        shadows[to_idx].vms.push((name, demand, mem));
    }

    /// Full-walk [`super::ThresholdRebalance`].
    #[derive(Debug, Default, Clone, Copy)]
    pub(crate) struct ThresholdRebalance;

    impl RebalancePolicy for ThresholdRebalance {
        fn name(&self) -> &'static str {
            "threshold"
        }

        fn plan(&self, cluster: &Cluster, params: &OrchParams) -> RebalancePlan {
            let mut sh = shadows(cluster);
            let mut plan = RebalancePlan::default();
            for _ in 0..params.max_migrations_per_tick {
                // Hottest overloaded host.
                let Some(src) = (0..sh.len())
                    .filter(|&i| sh[i].powered && sh[i].util() > params.overload_cpu_threshold)
                    .max_by(|&a, &b| {
                        sh[a]
                            .util()
                            .partial_cmp(&sh[b].util())
                            .expect("utilization is never NaN")
                            .then(sh[b].id.cmp(&sh[a].id))
                    })
                else {
                    break;
                };
                // Its most demanding VM that fits somewhere cooler.
                let mut order: Vec<usize> = (0..sh[src].vms.len()).collect();
                order.sort_by(|&a, &b| {
                    sh[src].vms[b]
                        .1
                        .partial_cmp(&sh[src].vms[a].1)
                        .expect("demand is never NaN")
                        .then(sh[src].vms[a].0.cmp(&sh[src].vms[b].0))
                });
                let mut moved = false;
                for vm_idx in order {
                    let (ref name, demand, mem) = sh[src].vms[vm_idx];
                    let name = name.clone();
                    let dest = (0..sh.len())
                        .filter(|&j| {
                            j != src
                                && sh[j].fits(demand, mem)
                                && sh[j].util() < params.overload_cpu_threshold
                        })
                        .min_by(|&a, &b| {
                            sh[a]
                                .util()
                                .partial_cmp(&sh[b].util())
                                .expect("utilization is never NaN")
                                .then(sh[a].id.cmp(&sh[b].id))
                        });
                    if let Some(dst) = dest {
                        plan.migrations.push(MigrationDecision {
                            vm: name.clone(),
                            to: sh[dst].id,
                            engine: engine_for(cluster, sh[src].id, &name, params),
                        });
                        shadow_move(&mut sh, src, dst, vm_idx);
                        moved = true;
                        break;
                    }
                }
                if !moved {
                    break; // nothing movable: stop planning this tick
                }
            }
            plan
        }
    }

    /// Full-walk [`super::ConsolidateAndPowerDown`].
    #[derive(Debug, Default, Clone, Copy)]
    pub(crate) struct ConsolidateAndPowerDown;

    impl RebalancePolicy for ConsolidateAndPowerDown {
        fn name(&self) -> &'static str {
            "consolidate-power-down"
        }

        fn plan(&self, cluster: &Cluster, params: &OrchParams) -> RebalancePlan {
            let mut sh = shadows(cluster);
            let mut plan = RebalancePlan::default();
            // Coldest first: the cheapest host to evacuate.
            let mut sources: Vec<usize> = (0..sh.len())
                .filter(|&i| sh[i].powered && sh[i].util() < params.underload_cpu_threshold)
                .collect();
            sources.sort_by(|&a, &b| {
                sh[a]
                    .util()
                    .partial_cmp(&sh[b].util())
                    .expect("utilization is never NaN")
                    .then(sh[a].id.cmp(&sh[b].id))
            });

            for src in sources {
                if plan.migrations.len() >= params.max_migrations_per_tick {
                    break;
                }
                if plan.migrations.len() + sh[src].vms.len() > params.max_migrations_per_tick {
                    continue; // cannot finish the evacuation this tick; skip
                }
                // Tentatively rehome every VM; all must fit or none move.
                let mut moves: Vec<(usize, usize)> = Vec::new(); // (vm_idx snapshotted order, dst)
                let mut trial = sh
                    .iter()
                    .map(|s| (s.cpu_committed, s.mem_committed))
                    .collect::<Vec<_>>();
                let mut feasible = true;
                for (vm_idx, &(_, demand, mem)) in sh[src].vms.iter().enumerate() {
                    // Warmest destination that still stays under the overload bar.
                    let dest = (0..sh.len())
                        .filter(|&j| {
                            j != src
                                && sh[j].powered
                                && trial[j].0 + demand
                                    <= sh[j].cores * params.overload_cpu_threshold
                                && trial[j].1 + mem <= sh[j].mem_capacity
                        })
                        .max_by(|&a, &b| {
                            (trial[a].0 / sh[a].cores)
                                .partial_cmp(&(trial[b].0 / sh[b].cores))
                                .expect("utilization is never NaN")
                                .then(sh[b].id.cmp(&sh[a].id))
                        });
                    match dest {
                        Some(dst) => {
                            trial[dst].0 += demand;
                            trial[dst].1 += mem;
                            moves.push((vm_idx, dst));
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                // Commit: highest index first so removals don't shift earlier ones.
                moves.sort_by_key(|m| std::cmp::Reverse(m.0));
                for (vm_idx, dst) in moves {
                    let name = sh[src].vms[vm_idx].0.clone();
                    plan.migrations.push(MigrationDecision {
                        vm: name.clone(),
                        to: sh[dst].id,
                        engine: engine_for(cluster, sh[src].id, &name, params),
                    });
                    shadow_move(&mut sh, src, dst, vm_idx);
                }
                plan.power_off.push(sh[src].id);
                // An evacuated host must not become a destination later in the
                // same plan.
                sh[src].powered = false;
            }
            plan
        }
    }

    /// Full-walk [`super::SpreadRebalance`].
    #[derive(Debug, Default, Clone, Copy)]
    pub(crate) struct SpreadRebalance;

    impl RebalancePolicy for SpreadRebalance {
        fn name(&self) -> &'static str {
            "spread"
        }

        fn plan(&self, cluster: &Cluster, params: &OrchParams) -> RebalancePlan {
            let mut sh = shadows(cluster);
            let mut plan = RebalancePlan::default();
            for _ in 0..params.max_migrations_per_tick {
                let powered: Vec<usize> = (0..sh.len()).filter(|&i| sh[i].powered).collect();
                if powered.len() < 2 {
                    break;
                }
                let &hot = powered
                    .iter()
                    .max_by(|&&a, &&b| {
                        sh[a]
                            .util()
                            .partial_cmp(&sh[b].util())
                            .expect("utilization is never NaN")
                            .then(sh[b].id.cmp(&sh[a].id))
                    })
                    .expect("non-empty");
                let &cold = powered
                    .iter()
                    .min_by(|&&a, &&b| {
                        sh[a]
                            .util()
                            .partial_cmp(&sh[b].util())
                            .expect("utilization is never NaN")
                            .then(sh[a].id.cmp(&sh[b].id))
                    })
                    .expect("non-empty");
                if sh[hot].util() - sh[cold].util() <= params.spread_utilization_gap {
                    break;
                }
                // Smallest VM on the hot host that (a) fits on the cold one and
                // (b) actually narrows the gap instead of swapping it.
                let gap = sh[hot].util() - sh[cold].util();
                let mut order: Vec<usize> = (0..sh[hot].vms.len()).collect();
                order.sort_by(|&a, &b| {
                    sh[hot].vms[a]
                        .1
                        .partial_cmp(&sh[hot].vms[b].1)
                        .expect("demand is never NaN")
                        .then(sh[hot].vms[a].0.cmp(&sh[hot].vms[b].0))
                });
                let candidate = order.into_iter().find(|&vm_idx| {
                    let (_, demand, mem) = sh[hot].vms[vm_idx];
                    sh[cold].fits(demand, mem)
                        && (demand / sh[hot].cores + demand / sh[cold].cores) < gap
                });
                match candidate {
                    Some(vm_idx) => {
                        let name = sh[hot].vms[vm_idx].0.clone();
                        plan.migrations.push(MigrationDecision {
                            vm: name.clone(),
                            to: sh[cold].id,
                            engine: engine_for(cluster, sh[hot].id, &name, params),
                        });
                        shadow_move(&mut sh, hot, cold, vm_idx);
                    }
                    None => break,
                }
            }
            plan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::params::VmFidelity;
    use crate::scenario::Lcg;
    use rvisor_cluster::{HostSpec, ServerRole, VmSpec};
    use rvisor_types::ByteSize;

    fn cluster(n_hosts: usize) -> Cluster {
        let specs = (0..n_hosts)
            .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
            .collect();
        Cluster::new(specs, OrchParams::default()).unwrap()
    }

    fn vm(name: &str, demand: f64) -> VmSpec {
        VmSpec::typical(name, ServerRole::Web).with_cpu_demand(demand)
    }

    #[test]
    fn threshold_drains_the_hotspot() {
        let mut c = cluster(2);
        // Host 0: 30 of 32 cores committed (93% util). Host 1: empty.
        for i in 0..6 {
            c.deploy(HostId::new(0), vm(&format!("hot-{i}"), 5.0))
                .unwrap();
        }
        let plan = ThresholdRebalance.plan(&c, &OrchParams::default());
        assert!(!plan.migrations.is_empty());
        assert!(plan.migrations.iter().all(|m| m.to == HostId::new(1)));
        assert!(plan.power_off.is_empty());
    }

    #[test]
    fn threshold_quiet_when_balanced() {
        let mut c = cluster(2);
        c.deploy(HostId::new(0), vm("a", 4.0)).unwrap();
        c.deploy(HostId::new(1), vm("b", 4.0)).unwrap();
        assert!(ThresholdRebalance
            .plan(&c, &OrchParams::default())
            .is_empty());
    }

    #[test]
    fn consolidate_evacuates_and_powers_down() {
        let mut c = cluster(3);
        c.deploy(HostId::new(0), vm("a", 10.0)).unwrap();
        c.deploy(HostId::new(1), vm("b", 2.0)).unwrap(); // 6% util: cold
        let plan = ConsolidateAndPowerDown.plan(&c, &OrchParams::default());
        assert!(plan
            .migrations
            .iter()
            .any(|m| m.vm == "b" && m.to == HostId::new(0)));
        assert!(plan.power_off.contains(&HostId::new(1)));
        // Host 2 is empty: powered off without any migrations.
        assert!(plan.power_off.contains(&HostId::new(2)));
    }

    #[test]
    fn spread_narrows_the_gap() {
        let mut c = cluster(2);
        for i in 0..4 {
            c.deploy(HostId::new(0), vm(&format!("s-{i}"), 4.0))
                .unwrap();
        }
        // 50% vs 0% utilization: gap 0.5 > 0.2 tolerance.
        let plan = SpreadRebalance.plan(&c, &OrchParams::default());
        assert!(!plan.migrations.is_empty());
        assert!(plan.migrations.iter().all(|m| m.to == HostId::new(1)));
    }

    #[test]
    fn plans_are_deterministic() {
        let build = || {
            let mut c = cluster(4);
            for i in 0..8 {
                c.deploy(HostId::new(i % 2), vm(&format!("v-{i}"), 3.5))
                    .unwrap();
            }
            c
        };
        let p = OrchParams::default();
        for policy in [
            &ThresholdRebalance as &dyn RebalancePolicy,
            &ConsolidateAndPowerDown,
            &SpreadRebalance,
        ] {
            assert_eq!(policy.plan(&build(), &p), policy.plan(&build(), &p));
        }
    }

    /// Pseudo-random cluster state: mixed host generations, skewed VM
    /// placement, load changes (whose subtractive accounting leaves float
    /// residue), a powered-off host, sometimes a failed one.
    fn random_cluster(seed: u64, fidelity: VmFidelity) -> Cluster {
        let mut rng = Lcg::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n_hosts = 2 + rng.next_below(6) as usize;
        let specs = (0..n_hosts)
            .map(|i| {
                let id = HostId::new(i as u32);
                if rng.next_below(2) == 0 {
                    HostSpec::modern_server(id)
                } else {
                    HostSpec::deck_era_server(id)
                }
            })
            .collect();
        let params = OrchParams {
            fidelity,
            guest_memory: ByteSize::kib(64),
            ..OrchParams::default()
        };
        let mut c = Cluster::new(specs, params).unwrap();
        let n_vms = rng.next_below(28) as usize;
        for v in 0..n_vms {
            let demand = rng.next_below(800) as f64 / 100.0;
            let host = HostId::new(rng.next_below(n_hosts as u64) as u32);
            // Deploys that don't fit are simply skipped (deterministically).
            let _ = c.deploy(host, vm(&format!("r-{v}"), demand));
        }
        for v in 0..n_vms {
            if rng.next_below(3) == 0 {
                let _ = c.set_cpu_demand(&format!("r-{v}"), rng.next_below(1000) as f64 / 100.0);
            }
        }
        if rng.next_below(3) == 0 {
            let _ = c.power_off(HostId::new(rng.next_below(n_hosts as u64) as u32));
        }
        if rng.next_below(4) == 0 {
            let _ = c.fail_host(HostId::new(rng.next_below(n_hosts as u64) as u32));
        }
        c
    }

    /// The tentpole pin: the indexed policies produce decision-for-decision
    /// identical plans to the original full-walk implementations, across
    /// random cluster states, both fidelity settings and several parameter
    /// regimes (including tight migration caps and thresholds sitting right
    /// on top of host utilizations).
    #[test]
    fn indexed_plans_match_reference_on_random_clusters() {
        for seed in 0..60u64 {
            // Full fidelity builds real guests; sample it more sparsely.
            let fidelity = if seed % 5 == 0 {
                VmFidelity::Full
            } else {
                VmFidelity::OnDemand
            };
            let c = random_cluster(seed, fidelity);
            let param_sets = [
                OrchParams {
                    fidelity,
                    ..OrchParams::default()
                },
                OrchParams {
                    fidelity,
                    overload_cpu_threshold: 0.5,
                    underload_cpu_threshold: 0.3,
                    max_migrations_per_tick: 2,
                    spread_utilization_gap: 0.05,
                    ..OrchParams::default()
                },
            ];
            for p in &param_sets {
                assert_eq!(
                    ThresholdRebalance.plan(&c, p),
                    reference::ThresholdRebalance.plan(&c, p),
                    "threshold diverged on seed {seed}"
                );
                assert_eq!(
                    ConsolidateAndPowerDown.plan(&c, p),
                    reference::ConsolidateAndPowerDown.plan(&c, p),
                    "consolidate diverged on seed {seed}"
                );
                assert_eq!(
                    SpreadRebalance.plan(&c, p),
                    reference::SpreadRebalance.plan(&c, p),
                    "spread diverged on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn policies_are_quiet_on_a_dead_cluster() {
        let mut c = cluster(3);
        for i in 0..3 {
            c.fail_host(HostId::new(i)).unwrap();
        }
        let p = OrchParams::default();
        for policy in [
            &ThresholdRebalance as &dyn RebalancePolicy,
            &ConsolidateAndPowerDown,
            &SpreadRebalance,
        ] {
            assert!(policy.plan(&c, &p).is_empty());
        }
        assert_eq!(
            ConsolidateAndPowerDown.plan(&c, &p),
            reference::ConsolidateAndPowerDown.plan(&c, &p)
        );
    }
}

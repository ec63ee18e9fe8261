//! Layer probes: timed calls into each layer's public functions, with
//! inputs shaped like the workload (its host count, topology, guest size,
//! fidelity and a cluster state replayed from its own scenario).
//!
//! | metric | call | earlier `bench_json` entry |
//! |---|---|---|
//! | `orch.event_queue_push_pop_ns` | `EventQueue::push` + `pop` at the day's event count | `event_queue_push_pop_1m` |
//! | `orch.choose_host_ns` | `Cluster::choose_host` | `orch_placement_scan_10k_hosts` |
//! | `orch.policy_plan_us` | `RebalancePolicy::plan` | `orch_rebalance_tick_10k_hosts` |
//! | `net.transfer_ns` | `AnyFabric::transfer`, host to DR endpoint | `fabric_transfer_1mib` |
//! | `net.striped_transfer_ns` | `AnyFabric::transfer_striped`, 4 stripes | `clos_transfer_striped_cross_rack` |
//! | `snapshot.backup_us` | `Cluster::backup` of a live guest | none |
//! | `snapshot.backup_dedup_us` | `Cluster::backup_dedup` into a warm `CasStore` | none |
//! | `snapshot.cas_ingest_us` | `CasStore::ingest` of a warm snapshot | `cas_chunk_probe` |
//! | `migrate.migrate_planned_us` | `Cluster::migrate_planned`, one plan per planner rung | `postcopy_fault_lane_2mib` |
//! | `migrate.wire_encode_mib_s` | `MigrationSource::encode_round` | `wire_encode_round_2mib` |
//! | `migrate.wire_apply_mib_s` | `MigrationSink::apply_burst` | `wire_decode_apply_round_2mib` |
//! | `memory.harvest_copy_mib_s` | `drain_dirty_into` + `with_page` / `with_page_mut` | `memory_plane_harvest_copy_round` |

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rvisor_cluster::VmSpec;
use rvisor_memory::GuestMemory;
use rvisor_migrate::{LoopbackTransport, MigrationSink, MigrationSource, Transport};
use rvisor_net::{Link, LinkModel};
use rvisor_orch::{
    BackupHandle, Cluster, EventQueue, HostPower, MigrationPlanner, OrchEvent, Scenario,
};
use rvisor_snapshot::{CasStore, SnapshotStore};
use rvisor_types::{ByteSize, Error, GuestAddress, HostId, Nanoseconds, Result, PAGE_SIZE};

use crate::workloads::Workload;
use crate::{median, MIB};

/// Wall-clock target of one timed batch of cheap calls.
const BATCH_TARGET: Duration = Duration::from_millis(2);
/// Fewest samples a probe takes, whatever its budget.
const MIN_SAMPLES: usize = 5;

/// Median nanoseconds per call of `f`, timed in batches of about
/// [`BATCH_TARGET`] until `budget` is spent.
fn per_call_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().max(Duration::from_nanos(1));
    let batch = (BATCH_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u32;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(samples)
}

/// Median of the durations `f` reports, one call per sample, until
/// `budget` is spent. `f` times its own critical section, so untimed
/// clean-up between calls stays out of the figure.
fn timed_each(budget: Duration, mut f: impl FnMut() -> Result<Duration>) -> Result<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed() < budget {
        samples.push(f()?.as_nanos() as f64);
    }
    Ok(median(samples))
}

/// A cluster in the workload's shape: its hosts, parameters and fidelity,
/// filled by replaying the first half of its scenario's arrivals,
/// departures and load changes through the placement path.
pub struct Bed {
    cluster: Cluster,
    workload: Workload,
    /// Arrival specs for placement probes.
    specs: Vec<VmSpec>,
    /// Events the day delivered (the event-queue probe's size).
    day_events: usize,
}

impl Bed {
    pub fn new(workload: Workload, scenario: &Scenario, day_events: u64) -> Result<Bed> {
        let mut cluster = Cluster::new(workload.host_specs(), workload.params)?;
        let noon = Nanoseconds(scenario.config.duration.as_nanos() / 2);
        let mut specs = Vec::new();
        for (at, event) in &scenario.events {
            if *at > noon {
                break;
            }
            match event {
                OrchEvent::VmArrival { spec } => {
                    if specs.len() < 64 {
                        specs.push(spec.clone());
                    }
                    if let Some(host) = cluster.choose_host(workload.params.placement, spec) {
                        cluster.deploy(host, spec.clone())?;
                    }
                }
                OrchEvent::VmDeparture { vm } if cluster.host_of(vm).is_some() => {
                    cluster.destroy(vm)?;
                }
                OrchEvent::LoadChange {
                    vm,
                    cpu_demand_millicores,
                } if cluster.host_of(vm).is_some() => {
                    cluster.set_cpu_demand(vm, f64::from(*cpu_demand_millicores) / 1000.0)?;
                }
                _ => {}
            }
        }
        Ok(Bed {
            cluster,
            workload,
            specs,
            day_events: usize::try_from(day_events).unwrap_or(usize::MAX).max(1),
        })
    }

    /// Run every probe, splitting `budget` evenly; returns metric values.
    pub fn run(&mut self, budget: Duration) -> Result<BTreeMap<&'static str, f64>> {
        let each = budget / 12;
        let mut m = BTreeMap::new();
        m.insert("orch.event_queue_push_pop_ns", self.event_queue(each));
        m.insert("orch.choose_host_ns", self.choose_host(each));
        m.insert("orch.policy_plan_us", self.policy_plan(each) / 1e3);
        let (plain, striped) = self.fabric(each)?;
        m.insert("net.transfer_ns", plain);
        m.insert("net.striped_transfer_ns", striped);
        let vm = self.live_vm()?;
        m.insert("snapshot.backup_us", self.backup(each, &vm)? / 1e3);
        m.insert(
            "snapshot.backup_dedup_us",
            self.backup_dedup(each, &vm)? / 1e3,
        );
        m.insert("snapshot.cas_ingest_us", self.cas_ingest(each, &vm)? / 1e3);
        m.insert(
            "migrate.migrate_planned_us",
            self.migrate_planned(each * 2, &vm)? / 1e3,
        );
        let (encode, apply) = self.wire(each)?;
        m.insert("migrate.wire_encode_mib_s", encode);
        m.insert("migrate.wire_apply_mib_s", apply);
        m.insert("memory.harvest_copy_mib_s", self.harvest(each)?);
        Ok(m)
    }

    fn guest_pages(&self) -> u64 {
        self.workload.params.guest_memory.as_u64() / PAGE_SIZE
    }

    /// ns per event: push the day's event count at scattered instants,
    /// then drain the queue in time order.
    fn event_queue(&self, budget: Duration) -> f64 {
        let n = self.day_events;
        let day_ns = 86_400_000_000_000u64;
        let per_drain = per_call_ns(budget, || {
            let mut q = EventQueue::default();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(Nanoseconds(x % day_ns), OrchEvent::RebalanceTick);
            }
            let mut popped = 0usize;
            while q.pop().is_some() {
                popped += 1;
            }
            popped
        });
        per_drain / n as f64
    }

    fn choose_host(&self, budget: Duration) -> f64 {
        let placement = self.workload.params.placement;
        let mut i = 0;
        per_call_ns(budget, || {
            i = (i + 1) % self.specs.len().max(1);
            self.specs
                .get(i)
                .and_then(|spec| self.cluster.choose_host(placement, spec))
        })
    }

    fn policy_plan(&self, budget: Duration) -> f64 {
        let policy = self.workload.policy();
        per_call_ns(budget, || policy.plan(&self.cluster, &self.workload.params))
    }

    /// (plain, striped) ns per transfer of one guest's bytes on a copy of
    /// the workload's fabric.
    fn fabric(&self, budget: Duration) -> Result<(f64, f64)> {
        let mut fabric = self.cluster.fabric().clone();
        let hosts = self.workload.hosts;
        let dr = self.cluster.dr_endpoint();
        let bytes = self.workload.params.guest_memory.as_u64();
        let mut i = 0usize;
        let mut err = None;
        let plain = per_call_ns(budget, || {
            i = (i + 1) % hosts;
            fabric
                .transfer(i, dr, Nanoseconds::ZERO, bytes)
                .map_err(|e| err = Some(e))
        });
        let stripes = [bytes / 4; 4];
        let striped = per_call_ns(budget, || {
            i = (i + 1) % hosts;
            // Half the cluster away: a different rack on a Clos fabric.
            fabric
                .transfer_striped(i, (i + hosts / 2) % hosts, Nanoseconds::ZERO, &stripes)
                .map_err(|e| err = Some(e))
        });
        match err {
            Some(e) => Err(e),
            None => Ok((plain, striped)),
        }
    }

    /// A VM on the bed, materialized into a live guest.
    fn live_vm(&mut self) -> Result<String> {
        let vm = self
            .cluster
            .hosts()
            .iter()
            .flat_map(|h| h.vm_names())
            .next()
            .ok_or_else(|| Error::Config("the probe cluster holds no VM".into()))?;
        self.cluster.materialize(&vm)?;
        Ok(vm)
    }

    fn backup(&mut self, budget: Duration, vm: &str) -> Result<f64> {
        let mut store = SnapshotStore::new();
        timed_each(budget, || {
            let t = Instant::now();
            let (handle, _, _) = self
                .cluster
                .backup(vm, "probe", &mut store, Nanoseconds::ZERO)?;
            let took = t.elapsed();
            if let BackupHandle::Stored(id) = handle {
                store.delete(id)?;
            }
            Ok(took)
        })
    }

    fn backup_dedup(&mut self, budget: Duration, vm: &str) -> Result<f64> {
        let mut cas = CasStore::new();
        // The first epoch stays: every later one probes warm chunks.
        self.cluster
            .backup_dedup(vm, "warm", &mut cas, None, Nanoseconds::ZERO)?;
        timed_each(budget, || {
            let t = Instant::now();
            let b = self
                .cluster
                .backup_dedup(vm, "probe", &mut cas, None, Nanoseconds::ZERO)?;
            let took = t.elapsed();
            cas.retire(b.manifest)?;
            Ok(took)
        })
    }

    fn cas_ingest(&mut self, budget: Duration, vm: &str) -> Result<f64> {
        let mut store = SnapshotStore::new();
        let (handle, _, _) = self
            .cluster
            .backup(vm, "probe", &mut store, Nanoseconds::ZERO)?;
        let BackupHandle::Stored(id) = handle else {
            return Err(Error::Config(
                "a live guest backs up to a stored snapshot".into(),
            ));
        };
        let snap = store
            .get(id)
            .cloned()
            .ok_or_else(|| Error::Config("stored snapshot vanished".into()))?;
        let mut cas = CasStore::new();
        cas.ingest(&snap, None)?;
        timed_each(budget, || {
            let t = Instant::now();
            let (manifest, _) = cas.ingest(&snap, None)?;
            let took = t.elapsed();
            cas.retire(manifest)?;
            Ok(took)
        })
    }

    /// ns per migration: `vm` goes to a cool host and back under each
    /// rung's plan of the default planner ladder.
    fn migrate_planned(&mut self, budget: Duration, vm: &str) -> Result<f64> {
        let planner = MigrationPlanner::default();
        let big = ByteSize::gib(2);
        let plans = [
            planner.plan(0, ByteSize::new(0), Nanoseconds::ZERO).plan, // tiny-guest
            planner.plan(u64::MAX, big, Nanoseconds::ZERO).plan,       // dirty-hot
            planner.plan(0, big, Nanoseconds::ZERO).plan,              // big-idle
            planner.plan(0, big, Nanoseconds(u64::MAX)).plan,          // default
        ];
        let home = self
            .cluster
            .host_of(vm)
            .ok_or_else(|| Error::Config(format!("{vm} left the probe cluster")))?;
        let away = self.cool_host(vm, home, &plans[0])?;
        let mut now = Nanoseconds::ZERO;
        let per_round = timed_each(budget, || {
            let t = Instant::now();
            for plan in &plans {
                self.cluster.migrate_planned(vm, away, plan, now)?;
                self.cluster.migrate_planned(vm, home, plan, now)?;
                now = now.saturating_add(Nanoseconds::from_secs(1));
            }
            Ok(t.elapsed())
        })?;
        Ok(per_round / (2 * plans.len()) as f64)
    }

    /// The least CPU-utilized powered host `vm` can migrate to (and does:
    /// the probe's first migration moves it there and back).
    fn cool_host(
        &mut self,
        vm: &str,
        home: HostId,
        plan: &rvisor_migrate::MigrationPlan,
    ) -> Result<HostId> {
        let mut candidates: Vec<(f64, HostId)> = self
            .cluster
            .hosts()
            .iter()
            .filter(|h| h.power() == HostPower::On && h.id() != home)
            .map(|h| (h.cpu_utilization(), h.id()))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, host) in candidates.into_iter().take(64) {
            if self
                .cluster
                .migrate_planned(vm, host, plan, Nanoseconds::ZERO)
                .is_ok()
            {
                self.cluster
                    .migrate_planned(vm, home, plan, Nanoseconds::ZERO)?;
                return Ok(host);
            }
        }
        Err(Error::Config(format!("no host can take {vm}")))
    }

    /// (encode, apply) MiB/s of one full round of a workload-sized guest.
    fn wire(&self, budget: Duration) -> Result<(f64, f64)> {
        let pages = self.guest_pages();
        let (src, dst) = guest_pair(pages)?;
        let all: Vec<u64> = (0..pages).collect();
        let mut link = Link::new(LinkModel::ten_gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let mut err = None;
        let encode_ns = per_call_ns(budget, || {
            let mut source = MigrationSource::raw(&src);
            let sent = source
                .encode_round(&all, &mut transport)
                .and_then(|()| transport.deliver(Nanoseconds::ZERO));
            match sent {
                Ok((_, burst)) => transport.recycle(burst),
                Err(e) => err = Some(e),
            }
        });
        let mut source = MigrationSource::raw(&src);
        source.send_hello(&mut transport)?;
        source.encode_round(&all, &mut transport)?;
        let (_, burst) = transport.deliver(Nanoseconds::ZERO)?;
        let apply_ns = per_call_ns(budget, || {
            let mut sink = MigrationSink::new(&dst);
            if let Err(e) = sink.apply_burst(&burst) {
                err = Some(e);
            }
            sink.pages_applied()
        });
        if let Some(e) = err {
            return Err(e);
        }
        let mib = (pages * PAGE_SIZE) as f64 / MIB;
        Ok((mib / (encode_ns / 1e9), mib / (apply_ns / 1e9)))
    }

    /// MiB/s of a dirty-harvest round: half the guest's pages dirtied,
    /// drained, and copied page by page into a second guest.
    fn harvest(&self, budget: Duration) -> Result<f64> {
        let pages = self.guest_pages();
        let (src, dst) = guest_pair(pages)?;
        let mut harvest: Vec<u64> = Vec::new();
        let mut bounce = [0u8; PAGE_SIZE as usize];
        let mut err = None;
        let ns = per_call_ns(budget, || {
            for p in (0..pages).step_by(2) {
                src.mark_dirty_page(p);
            }
            src.drain_dirty_into(&mut harvest);
            for &p in &harvest {
                let copied = src
                    .with_page(p, |bytes| bounce.copy_from_slice(bytes))
                    .and_then(|()| dst.with_page_mut(p, |page| page.copy_from_slice(&bounce)));
                if let Err(e) = copied {
                    err = Some(e);
                }
            }
            harvest.len()
        });
        if let Some(e) = err {
            return Err(e);
        }
        let mib = (pages.div_ceil(2) * PAGE_SIZE) as f64 / MIB;
        Ok(mib / (ns / 1e9))
    }
}

/// A source guest with three of every four pages written, and an empty
/// destination of the same size.
fn guest_pair(pages: u64) -> Result<(GuestMemory, GuestMemory)> {
    let src = GuestMemory::flat(ByteSize::pages_of(pages))?;
    let dst = GuestMemory::flat(ByteSize::pages_of(pages))?;
    for p in (0..pages).filter(|p| p % 4 != 3) {
        src.write_u64(GuestAddress(p * PAGE_SIZE), p * 11 + 3)?;
    }
    Ok((src, dst))
}

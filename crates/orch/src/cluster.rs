//! The cluster: per-host [`Vmm`] stacks plus indexed capacity accounting.
//!
//! Each [`OrchHost`] pairs two views of one physical machine:
//!
//! * a [`rvisor_cluster::Host`] doing VmSpec-level capacity accounting
//!   (configured memory, sustained CPU demand — what the placement and
//!   rebalance policies reason about), and
//! * a live [`Vmm`] holding real guest-memory-backed VMs (what migrations,
//!   snapshots and DR restores actually operate on).
//!
//! The accounting scale and the simulation scale differ deliberately: specs
//! speak in GiBs of configured RAM, while each live guest gets
//! [`OrchParams::guest_memory`](crate::OrchParams::guest_memory) of real
//! backing so a 500-VM datacenter stays tractable. All byte-counted results
//! (migration traffic, backup sizes) are therefore in *simulation-scale*
//! bytes.
//!
//! # Indexed state
//!
//! The cluster maintains ordered indexes over its hosts so fleet-level
//! queries stop walking the whole host vector:
//!
//! * `by_util` — powered-on hosts ordered by `(cpu-utilization, id)`, the
//!   backbone of `Spread` placement and of incremental policy evaluation;
//! * `free_cpu` / `free_mem` — powered-on hosts ordered by free capacity,
//!   giving an O(log n) "could this VM fit *anywhere*?" quick reject;
//! * `empty_powered` / `parked` — powered-on-and-empty and powered-off
//!   hosts in host-vector order (`OnePerHost` placement, DR power-up);
//! * `vm_to_host` / `by_id` — O(log n) VM-name and host-id lookups.
//!
//! Per-host committed-capacity figures are cached incrementally and are
//! *bit-identical* to recomputing the accounting folds: appending a spec
//! extends the left-fold CPU sum by exactly one term (so `+=` is exact),
//! while evictions and demand changes recompute the fold outright (float
//! addition is not associative). Every utilization a policy observes is
//! therefore exactly the number the un-indexed implementation produced.
//!
//! Utilizations and free capacities are keyed in the ordered sets by their
//! IEEE-754 bit patterns — valid because both are non-negative and never
//! NaN, where bit order coincides with numeric order.
//!
//! # The fidelity dial
//!
//! Under [`VmFidelity::OnDemand`] a deployed VM starts as a `VmModel` —
//! integer-only accounting, no guest pages — and is *materialized* into a
//! full [`Vmm`] stack only when a migration or restore touches its memory.
//! This is sound because canonical tenant state is deterministic (see
//! `provision_canonical`) and tenant guests only execute during migration
//! rounds: a VM materialized at time T holds exactly the state a
//! full-fidelity twin deployed at arrival would still hold at T. Backups of
//! still-modeled VMs are represented by [`BackupHandle::Canonical`] and cost
//! the same modelled bytes/time as a real snapshot stream, because full
//! snapshot size is content-independent (every page is captured).

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroU64;

use rvisor::{Vm, VmConfig, VmLifecycle, Vmm};
use rvisor_cluster::{Host, HostSpec, PlacementStrategy, VmSpec};
use rvisor_migrate::{FabricTransport, MigrationPlan, MigrationReport};
use rvisor_net::{AnyFabric, ClosFabric, ClosParams, Fabric};
use rvisor_obs::{ArgValue, Trace};
use rvisor_snapshot::{CasStore, IngestStats, ManifestId, SnapshotId, SnapshotStore};
use rvisor_types::{ByteSize, Error, GuestAddress, HostId, Nanoseconds, Result, PAGE_SIZE};
use rvisor_vcpu::{Workload, WorkloadKind};

use crate::params::{OrchParams, VmFidelity};

/// Guest code entry point for the synthetic tenant workload.
const TENANT_ENTRY: u64 = 0x1000;
/// Data area of the synthetic tenant workload (kept low so tiny guests fit).
const TENANT_DATA_BASE: u64 = 0x8000;
/// First page where per-VM identity markers are written.
const MARKER_BASE: u64 = 0xa000;
/// Idle wakeups budgeted per tenant guest; enough simulated "uptime" to
/// survive a day of migration rounds without the guest halting.
const TENANT_WAKEUPS: u64 = 1_000_000;
/// Conservative absolute slack for the floating-point free-CPU quick
/// reject. Committed-CPU sums carry at most ~1e-12 of absolute error at
/// datacenter magnitudes, so a reject margin of 1e-9 can never turn away a
/// VM the exact `fits` check would have accepted; ambiguous cases fall
/// through to the exact per-host check.
const FIT_SLACK: f64 = 1e-9;

/// Order-preserving integer key for a non-NaN `f64` (the usual IEEE-754
/// total-order trick: flip all bits of negatives, set the sign bit of
/// non-negatives). Cluster utilizations are never negative, but policy
/// shadows can carry tiny negative residues from incremental subtraction,
/// and both must sort in one key space.
pub(crate) fn util_key(value: f64) -> u64 {
    debug_assert!(!value.is_nan());
    // Collapse -0.0 (the empty `f64` sum identity) onto +0.0: IEEE
    // comparison calls them equal, so the key space must too or index
    // extremes would order empty hosts differently from a `partial_cmp`
    // scan.
    let value = if value == 0.0 { 0.0 } else { value };
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`util_key`].
pub(crate) fn key_util(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// FNV-1a hash of a VM name: the per-VM identity stamp written into guest
/// memory at deploy/materialization time.
fn identity_stamp(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Load the canonical tenant state into a freshly created VM: the idle
/// workload at the fixed layout plus four FNV-stamped identity pages.
///
/// This is the *only* way guest content enters the cluster, which is what
/// makes on-demand materialization sound: the state is a pure function of
/// the VM's name and the configured guest memory, so a VM materialized late
/// is bit-identical to one provisioned at arrival (tenant guests only
/// execute during migration rounds, never while parked on a host).
///
/// With `hot_modulus` set ([`OrchParams::hot_tenant_modulus`]), one tenant
/// in that many (chosen by the same FNV identity hash, so the population
/// mix is a pure function of the names) runs a write-heavy loop instead of
/// the idle loop: during migration rounds it re-dirties the two data pages
/// between [`TENANT_DATA_BASE`] and [`MARKER_BASE`], which is what gives
/// the VMM's running-VM dirtier a nonzero rate to observe and the adaptive
/// planner a dirty-hot class to route to the post-copy fault lane. Both
/// workload images fit one code page, so the canonical deploy state still
/// dirties exactly five pages either way.
fn provision_canonical(vm: &mut Vm, name: &str, hot_modulus: Option<NonZeroU64>) -> Result<()> {
    let hot = hot_modulus.is_some_and(|m| identity_stamp(name).is_multiple_of(m.get()));
    let kind = if hot {
        WorkloadKind::MemoryDirty {
            pages: (MARKER_BASE - TENANT_DATA_BASE) / PAGE_SIZE,
            passes: TENANT_WAKEUPS,
        }
    } else {
        WorkloadKind::Idle {
            wakeups: TENANT_WAKEUPS,
        }
    };
    let workload = Workload::with_layout(kind, TENANT_ENTRY, TENANT_DATA_BASE)?;
    vm.load_workload(&workload)?;
    // Stamp a per-VM identity so backups and migrations carry real,
    // distinguishable guest state (and dirty a few pages doing so).
    let stamp = identity_stamp(name);
    for k in 0..4u64 {
        vm.memory()
            .write_u64(GuestAddress(MARKER_BASE + k * PAGE_SIZE), stamp ^ k)?;
    }
    Ok(())
}

/// Power/health state of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPower {
    /// Powered and accepting placements.
    On,
    /// Consolidation policy powered it down; can be powered back on.
    Off,
    /// Failed; its VMs are gone and it stays dead for the rest of the run.
    Failed,
}

/// Integer-only statistical stand-in for a not-yet-materialized VM
/// (the cheap end of the fidelity dial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VmModel {
    /// Mirror of the accounting CPU demand, in millicores.
    cpu_demand_millicores: u64,
    /// Pages the canonical deploy state has dirtied (workload image plus
    /// identity markers); the dirty rate stays zero until materialization
    /// because parked tenant guests never execute.
    dirty_pages: u64,
}

impl VmModel {
    fn for_spec(spec: &VmSpec) -> Self {
        VmModel {
            cpu_demand_millicores: (spec.cpu_demand_cores.max(0.0) * 1000.0) as u64,
            // The idle workload image dirties its code page; the identity
            // stamp dirties four marker pages.
            dirty_pages: 5,
        }
    }
}

/// What a DR backup points at: a real snapshot in the DR store, or the
/// canonical deploy state a still-modeled VM is known to be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupHandle {
    /// A full snapshot captured from a live guest into the DR store.
    Stored(SnapshotId),
    /// The VM was still a statistical model when backed up: its state is
    /// the canonical deploy image, reconstructed bit-for-bit on restore.
    /// Same modelled size and wire time as a stored snapshot (full snapshot
    /// size is content-independent).
    Canonical,
    /// A backup epoch in the content-addressed DR store
    /// ([`OrchParams::dedup_backups`](crate::OrchParams::dedup_backups)):
    /// restore applies the manifest chain rooted at this epoch.
    Manifested(ManifestId),
}

/// Result of one deduplicated backup: the recorded epoch, its dedup
/// accounting, the bytes that actually crossed the fabric, and the instant
/// the stream fully arrived at the DR endpoint.
#[derive(Debug, Clone, Copy)]
pub struct DedupBackup {
    /// The manifest recorded in the content-addressed store.
    pub manifest: ManifestId,
    /// Novel vs deduplicated chunk counts and bytes for this epoch.
    pub stats: IngestStats,
    /// On-wire bytes charged to the fabric
    /// ([`rvisor_migrate::wire::dedup_backup_wire_bytes`]).
    pub wire_bytes: u64,
    /// When the stream has fully arrived; the epoch is restorable after.
    pub arrival: Nanoseconds,
}

/// One physical machine: accounting view plus the live VMM.
#[derive(Debug)]
pub struct OrchHost {
    accounting: Host,
    vmm: Vmm,
    power: HostPower,
    vm_ids: BTreeMap<String, rvisor_types::VmId>,
    /// Statistical models for not-yet-materialized VMs (OnDemand fidelity).
    models: BTreeMap<String, VmModel>,
    /// Incremental mirror of `accounting.cpu_committed()`, bit-identical to
    /// the fold at all times (see the module docs).
    cpu_committed: f64,
    /// Incremental mirror of `accounting.memory_committed()` (exact: u64).
    mem_committed: u64,
    /// Cached `spec.cores as f64`.
    cores: f64,
    /// Cached `accounting.memory_capacity()` (pure function of the spec).
    mem_capacity: u64,
}

impl OrchHost {
    /// The host's identifier.
    pub fn id(&self) -> HostId {
        self.accounting.spec.id
    }

    /// Current power/health state.
    pub fn power(&self) -> HostPower {
        self.power
    }

    /// The capacity-accounting view (specs placed, utilization).
    pub fn accounting(&self) -> &Host {
        &self.accounting
    }

    /// The live per-host VM manager.
    pub fn vmm(&self) -> &Vmm {
        &self.vmm
    }

    /// CPU utilization as a fraction of physical cores.
    pub fn cpu_utilization(&self) -> f64 {
        // Bit-identical to `accounting.cpu_utilization()`: the cached sum
        // is maintained to equal the fold exactly.
        self.cpu_committed / self.cores
    }

    /// Memory committed as a fraction of installed RAM.
    pub fn memory_utilization(&self) -> f64 {
        self.mem_committed as f64 / self.accounting.spec.memory.as_u64().max(1) as f64
    }

    /// Names of the VMs placed here, in placement order.
    pub fn vm_names(&self) -> Vec<String> {
        self.accounting
            .placed
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }

    /// Whether the named VM is still a statistical model on this host.
    pub(crate) fn is_model(&self, vm: &str) -> bool {
        self.models.contains_key(vm)
    }

    pub(crate) fn cpu_committed_cached(&self) -> f64 {
        self.cpu_committed
    }

    pub(crate) fn mem_committed_cached(&self) -> u64 {
        self.mem_committed
    }

    pub(crate) fn mem_capacity_cached(&self) -> u64 {
        self.mem_capacity
    }

    pub(crate) fn cores_f64(&self) -> f64 {
        self.cores
    }

    /// Exact equivalent of `accounting.fits(spec)` on the cached sums.
    fn fits_cached(&self, spec: &VmSpec) -> bool {
        let mem_ok = self.mem_committed + spec.memory.as_u64() <= self.mem_capacity;
        let cpu_ok = self.cpu_committed + spec.cpu_demand_cores <= self.cores;
        mem_ok && cpu_ok
    }

    fn live_vm_mut(&mut self, name: &str) -> Result<&mut Vm> {
        let id = *self
            .vm_ids
            .get(name)
            .ok_or_else(|| Error::Config(format!("no live VM named {name} on {}", self.id())))?;
        self.vmm.vm_mut(id)
    }
}

/// A datacenter: hosts sharing one migration/DR network fabric.
///
/// Every host is one fabric endpoint; one extra endpoint (index
/// `hosts.len()`) models the DR backup target, so backup streams and live
/// migrations contend for the same NICs and backbone.
#[derive(Debug)]
pub struct Cluster {
    hosts: Vec<OrchHost>,
    fabric: AnyFabric,
    params: OrchParams,
    /// Racks the *hosts* are spread over (1 for the single-spine topology;
    /// excludes the DR endpoint's own rack).
    n_host_racks: usize,
    /// VMs currently placed per host rack (empty for the single-spine
    /// topology). Maintained inside [`Self::deindex`]/[`Self::index`], so
    /// it tracks every placement, eviction, migration and host failure.
    rack_vms: Vec<usize>,
    /// Host id → position in `hosts`.
    by_id: BTreeMap<HostId, usize>,
    /// Powered-on hosts ordered by `(utilization bits, id)`.
    by_util: BTreeSet<(u64, HostId)>,
    /// Powered-on hosts ordered by `(free CPU bits, position)`.
    free_cpu: BTreeSet<(u64, usize)>,
    /// Powered-on hosts ordered by `(free memory bytes, position)`.
    free_mem: BTreeSet<(u64, usize)>,
    /// Positions of powered-on hosts with zero VMs, in host-vector order.
    empty_powered: BTreeSet<usize>,
    /// Positions of powered-off (not failed) hosts, in host-vector order.
    parked: BTreeSet<usize>,
    /// VM name → position of the host it lives on.
    vm_to_host: BTreeMap<String, usize>,
    /// VMs placed across all hosts.
    total_vms: usize,
    /// Hosts currently powered on.
    n_powered: usize,
    /// Lazily computed size of a canonical-state full snapshot (what a
    /// model VM's backup costs on the wire). Content-independent, so one
    /// probe against a scratch guest serves the whole run.
    canonical_backup_size: Option<ByteSize>,
    /// Observability plane: off by default, attached via [`Self::set_trace`].
    trace: Trace,
}

impl Cluster {
    /// Build a cluster of `host_specs` hosts, all powered on and empty.
    pub fn new(host_specs: Vec<HostSpec>, params: OrchParams) -> Result<Self> {
        params.validate()?;
        if host_specs.is_empty() {
            return Err(Error::Config("cluster needs at least one host".into()));
        }
        let hosts: Vec<OrchHost> = host_specs
            .into_iter()
            .map(|spec| {
                let accounting = Host::with_overcommit(spec, params.memory_overcommit);
                // The empty f64 sum is -0.0; seed the cache from the fold
                // so the two stay bit-identical.
                let cpu_committed = accounting.cpu_committed();
                OrchHost {
                    vmm: Vmm::new(&format!("host-{}", accounting.spec.id.raw())),
                    cores: accounting.spec.cores as f64,
                    mem_capacity: accounting.memory_capacity().as_u64(),
                    accounting,
                    power: HostPower::On,
                    vm_ids: BTreeMap::new(),
                    models: BTreeMap::new(),
                    cpu_committed,
                    mem_committed: 0,
                }
            })
            .collect();
        let mut by_id = BTreeMap::new();
        for (pos, h) in hosts.iter().enumerate() {
            if by_id.insert(h.id(), pos).is_some() {
                return Err(Error::Config(format!("duplicate host id {}", h.id())));
            }
        }
        // One endpoint per host, plus the DR backup target.
        let (fabric, n_host_racks) = match params.topology {
            crate::FabricTopology::SingleSpine => (
                AnyFabric::Single(Fabric::new(hosts.len() + 1, params.fabric)?),
                1,
            ),
            crate::FabricTopology::Clos {
                racks,
                spines,
                leaf_uplink_bytes_per_second,
                spine_bytes_per_second,
                cross_rack_latency,
            } => {
                // Hosts fill `racks` racks contiguously; the DR endpoint
                // gets its own extra rack so backup streams always cross
                // the spine tier (and never skew a host rack's leaf
                // occupancy) regardless of how evenly `racks` divides the
                // host count.
                let hosts_per_rack = hosts.len().div_ceil(racks).max(1);
                let clos_params = ClosParams {
                    racks: racks + 1,
                    hosts_per_rack,
                    nic_bytes_per_second: params.fabric.nic_bytes_per_second,
                    leaf_uplink_bytes_per_second,
                    spines,
                    spine_bytes_per_second,
                    rack_latency: params.fabric.latency,
                    cross_latency: cross_rack_latency,
                    mtu: params.fabric.mtu,
                    chunk_overhead: params.fabric.chunk_overhead,
                };
                let mut racks_of: Vec<usize> =
                    (0..hosts.len()).map(|pos| pos / hosts_per_rack).collect();
                racks_of.push(racks); // the DR endpoint's own rack
                (
                    AnyFabric::Clos(ClosFabric::with_rack_assignment(clos_params, racks_of)?),
                    racks,
                )
            }
        };
        let rack_vms = if n_host_racks > 1 {
            vec![0; n_host_racks]
        } else {
            Vec::new()
        };
        let n_powered = hosts.len();
        let mut cluster = Cluster {
            hosts,
            fabric,
            params,
            n_host_racks,
            rack_vms,
            by_id,
            by_util: BTreeSet::new(),
            free_cpu: BTreeSet::new(),
            free_mem: BTreeSet::new(),
            empty_powered: BTreeSet::new(),
            parked: BTreeSet::new(),
            vm_to_host: BTreeMap::new(),
            total_vms: 0,
            n_powered,
            canonical_backup_size: None,
            trace: Trace::off(),
        };
        for pos in 0..cluster.hosts.len() {
            cluster.index(pos);
        }
        Ok(cluster)
    }

    /// All hosts, in construction order.
    pub fn hosts(&self) -> &[OrchHost] {
        &self.hosts
    }

    /// The shared migration/DR fabric (single-spine or Clos).
    pub fn fabric(&self) -> &AnyFabric {
        &self.fabric
    }

    /// Racks the hosts are spread over (1 for the single-spine topology;
    /// the DR endpoint's own rack is not counted).
    pub fn racks(&self) -> usize {
        self.n_host_racks
    }

    /// The rack of the host at `pos` in the host vector.
    pub(crate) fn rack_of_pos(&self, pos: usize) -> usize {
        self.fabric.rack_of(pos)
    }

    /// The rack `host` lives in, if it exists.
    pub fn rack_of_id(&self, host: HostId) -> Option<usize> {
        self.position_of(host).map(|pos| self.fabric.rack_of(pos))
    }

    /// VMs currently placed in `rack` (0 for the single-spine topology,
    /// which tracks no per-rack occupancy).
    pub fn rack_vm_count(&self, rack: usize) -> usize {
        self.rack_vms.get(rack).copied().unwrap_or(0)
    }

    /// Whether a migration between two hosts would cross the spine tier.
    pub fn is_cross_rack(&self, a: HostId, b: HostId) -> bool {
        match (self.position_of(a), self.position_of(b)) {
            (Some(pa), Some(pb)) => self.fabric.rack_of(pa) != self.fabric.rack_of(pb),
            _ => false,
        }
    }

    /// Remove a spine from the fabric; see
    /// [`rvisor_net::ClosFabric::fail_spine`]. The single-spine topology
    /// always refuses (it would partition).
    pub fn fail_spine(&mut self, spine: usize) -> Result<()> {
        self.fabric.fail_spine(spine)
    }

    /// The earliest busy-until mark over all live spines — the rebalance
    /// policies' hot-spine occupancy query.
    pub fn min_live_spine_free_at(&self) -> Nanoseconds {
        self.fabric.min_live_spine_free_at()
    }

    /// Attach a trace to the cluster and its fabric: migrations, backups
    /// and fabric transfers emit spans keyed by simulated time. With
    /// [`Trace::off`] (the default) every emit compiles down to a branch.
    pub fn set_trace(&mut self, trace: Trace) {
        self.fabric.set_trace(trace.clone());
        self.trace = trace;
    }

    /// The attached trace (off by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Fabric endpoint index of the DR backup target.
    pub fn dr_endpoint(&self) -> usize {
        self.hosts.len()
    }

    /// Number of hosts currently powered on.
    pub fn powered_on(&self) -> usize {
        self.n_powered
    }

    /// Total VMs placed across hosts.
    pub fn total_vms(&self) -> usize {
        self.total_vms
    }

    /// VMs currently represented by statistical models rather than live
    /// guests (always zero under [`VmFidelity::Full`]).
    pub fn modeled_vms(&self) -> usize {
        self.hosts.iter().map(|h| h.models.len()).sum()
    }

    /// Whether the named VM is backed by a live guest (as opposed to a
    /// statistical model awaiting materialization).
    pub fn is_materialized(&self, vm: &str) -> bool {
        self.vm_to_host
            .get(vm)
            .is_some_and(|&pos| self.hosts[pos].vm_ids.contains_key(vm))
    }

    fn position(&self, host: HostId) -> Result<usize> {
        self.by_id
            .get(&host)
            .copied()
            .ok_or(Error::UnknownHost(host))
    }

    /// Position of `host` in the host vector, if it exists.
    pub(crate) fn position_of(&self, host: HostId) -> Option<usize> {
        self.by_id.get(&host).copied()
    }

    /// The host at `position` (must be in range).
    pub(crate) fn host_at(&self, position: usize) -> &OrchHost {
        &self.hosts[position]
    }

    /// Powered-on hosts ordered by `(utilization bits, id)`.
    pub(crate) fn util_index(&self) -> &BTreeSet<(u64, HostId)> {
        &self.by_util
    }

    /// The first powered-off host in host-vector order (DR power-up).
    pub(crate) fn first_parked(&self) -> Option<HostId> {
        self.parked.iter().next().map(|&pos| self.hosts[pos].id())
    }

    /// Which host (if any) currently runs the named VM.
    pub fn host_of(&self, vm: &str) -> Option<HostId> {
        self.vm_to_host.get(vm).map(|&pos| self.hosts[pos].id())
    }

    /// Remove `pos` from every index it currently appears in. Call before
    /// mutating the host's power, placement or committed figures; pair with
    /// [`Self::index`] after the mutation.
    fn deindex(&mut self, pos: usize) {
        let h = &self.hosts[pos];
        if !self.rack_vms.is_empty() {
            self.rack_vms[self.fabric.rack_of(pos)] -= h.accounting.vm_count();
        }
        match h.power {
            HostPower::On => {
                self.by_util
                    .remove(&(util_key(h.cpu_utilization()), h.id()));
                self.free_cpu
                    .remove(&(util_key((h.cores - h.cpu_committed).max(0.0)), pos));
                self.free_mem
                    .remove(&(h.mem_capacity.saturating_sub(h.mem_committed), pos));
                if h.accounting.vm_count() == 0 {
                    self.empty_powered.remove(&pos);
                }
            }
            HostPower::Off => {
                self.parked.remove(&pos);
            }
            HostPower::Failed => {}
        }
    }

    /// Re-insert `pos` into the indexes from its current state.
    fn index(&mut self, pos: usize) {
        let h = &self.hosts[pos];
        if !self.rack_vms.is_empty() {
            self.rack_vms[self.fabric.rack_of(pos)] += h.accounting.vm_count();
        }
        debug_assert_eq!(
            h.cpu_committed.to_bits(),
            h.accounting.cpu_committed().to_bits(),
            "cached CPU sum must stay bit-identical to the accounting fold"
        );
        debug_assert_eq!(h.mem_committed, h.accounting.memory_committed().as_u64());
        match h.power {
            HostPower::On => {
                self.by_util.insert((util_key(h.cpu_utilization()), h.id()));
                self.free_cpu
                    .insert((util_key((h.cores - h.cpu_committed).max(0.0)), pos));
                self.free_mem
                    .insert((h.mem_capacity.saturating_sub(h.mem_committed), pos));
                if h.accounting.vm_count() == 0 {
                    self.empty_powered.insert(pos);
                }
            }
            HostPower::Off => {
                self.parked.insert(pos);
            }
            HostPower::Failed => {}
        }
    }

    /// Place `spec` on the host at `pos`, maintaining caches and indexes.
    fn place_spec(&mut self, pos: usize, spec: VmSpec) -> Result<()> {
        self.deindex(pos);
        let h = &mut self.hosts[pos];
        let demand = spec.cpu_demand_cores;
        let mem = spec.memory.as_u64();
        let res = h.accounting.place(spec);
        if res.is_ok() {
            // Appending to `placed` extends the left-fold sum by exactly
            // one term, so incremental addition stays bit-identical.
            h.cpu_committed += demand;
            h.mem_committed += mem;
        }
        self.index(pos);
        res
    }

    /// Evict the named spec from the host at `pos`, maintaining caches.
    fn evict_spec(&mut self, pos: usize, name: &str) -> Option<VmSpec> {
        self.deindex(pos);
        let h = &mut self.hosts[pos];
        let spec = h.accounting.evict(name);
        if spec.is_some() {
            // Removal from the middle of `placed` reorders the fold, so
            // recompute rather than subtract (float addition is not
            // associative).
            h.cpu_committed = h.accounting.cpu_committed();
            h.mem_committed = h.accounting.memory_committed().as_u64();
        }
        self.index(pos);
        spec
    }

    /// Pick a powered-on host for `spec` under `strategy`.
    ///
    /// * `FirstFitDecreasing` — first host (host-vector order) with room:
    ///   packs.
    /// * `Spread` — the least CPU-utilized host with room: balances.
    /// * `OnePerHost` — the first *empty* host: the no-consolidation
    ///   baseline.
    ///
    /// All three answer exactly what a full scan of the host vector would,
    /// but start with an O(log n) free-capacity quick reject, and `Spread`
    /// and `OnePerHost` walk their dedicated indexes so they touch only
    /// candidate hosts. `FirstFitDecreasing` is inherently a first-in-order
    /// scan, but each probe is O(1) on the cached sums.
    pub fn choose_host(&self, strategy: PlacementStrategy, spec: &VmSpec) -> Option<HostId> {
        // Quick reject: if even the host with the most free CPU (or memory)
        // cannot fit this spec, nothing can. The CPU check is conservative
        // (FIT_SLACK); ambiguity falls through to the exact per-host check.
        let &(max_free_cpu_key, _) = self.free_cpu.iter().next_back()?;
        if spec.cpu_demand_cores > key_util(max_free_cpu_key) + FIT_SLACK {
            return None;
        }
        let &(max_free_mem, _) = self.free_mem.iter().next_back()?;
        if spec.memory.as_u64() > max_free_mem {
            return None;
        }
        match strategy {
            PlacementStrategy::FirstFitDecreasing => self
                .hosts
                .iter()
                .find(|h| h.power == HostPower::On && h.fits_cached(spec))
                .map(|h| h.id()),
            PlacementStrategy::OnePerHost => self
                .empty_powered
                .iter()
                .map(|&pos| &self.hosts[pos])
                .find(|h| h.fits_cached(spec))
                .map(|h| h.id()),
            PlacementStrategy::Spread if self.n_host_racks > 1 => {
                self.choose_spread_rack_aware(spec)
            }
            PlacementStrategy::Spread => self
                .by_util
                .iter()
                .map(|&(_, id)| &self.hosts[self.by_id[&id]])
                .find(|h| h.fits_cached(spec))
                .map(|h| h.id()),
        }
    }

    /// `Spread` placement on a multi-rack topology: the least CPU-utilized
    /// fitting host, with ties in utilization broken by rack occupancy
    /// (emptiest rack first), then id — so equally-cold hosts fill rack by
    /// rack instead of clustering wherever ids sort first. On one rack this
    /// reduces to the plain `Spread` walk (the id tie-break is the set
    /// order), which is why the single-rack path above stays byte-identical.
    fn choose_spread_rack_aware(&self, spec: &VmSpec) -> Option<HostId> {
        let mut candidates = self.by_util.iter().peekable();
        while let Some(&(key, id)) = candidates.next() {
            let h = &self.hosts[self.by_id[&id]];
            if !h.fits_cached(spec) {
                continue;
            }
            // First fitting host found; scan the rest of this utilization
            // key's run for a fitting host in an emptier rack.
            let mut best = (self.rack_vm_count(self.rack_of_pos(self.by_id[&id])), id);
            while let Some(&&(k2, id2)) = candidates.peek() {
                if k2 != key {
                    break;
                }
                candidates.next();
                let h2 = &self.hosts[self.by_id[&id2]];
                if h2.fits_cached(spec) {
                    let cand = (self.rack_vm_count(self.rack_of_pos(self.by_id[&id2])), id2);
                    if cand < best {
                        best = cand;
                    }
                }
            }
            return Some(best.1);
        }
        None
    }

    /// Deploy a new VM for `spec` on `host` — a live guest under
    /// [`VmFidelity::Full`], a statistical model under
    /// [`VmFidelity::OnDemand`].
    pub fn deploy(&mut self, host: HostId, spec: VmSpec) -> Result<()> {
        let idx = self.position(host)?;
        if self.hosts[idx].power != HostPower::On {
            return Err(Error::Config(format!("{host} is not powered on")));
        }
        if self.vm_to_host.contains_key(&spec.name) {
            return Err(Error::Config(format!(
                "a VM named {} already exists in the cluster",
                spec.name
            )));
        }
        let name = spec.name.clone();
        let model = VmModel::for_spec(&spec);
        self.place_spec(idx, spec)?;
        match self.params.fidelity {
            VmFidelity::Full => {
                if let Err(e) = self.materialize_at(idx, &name) {
                    self.evict_spec(idx, &name);
                    return Err(e);
                }
            }
            VmFidelity::OnDemand => {
                self.hosts[idx].models.insert(name.clone(), model);
            }
        }
        self.vm_to_host.insert(name, idx);
        self.total_vms += 1;
        Ok(())
    }

    /// Turn the model at (`idx`, `name`) into a live canonical-state guest.
    /// Idempotent for already-materialized VMs.
    fn materialize_at(&mut self, idx: usize, name: &str) -> Result<()> {
        let hot_modulus = self.params.hot_tenant_modulus;
        let h = &mut self.hosts[idx];
        if h.vm_ids.contains_key(name) {
            return Ok(());
        }
        let config = VmConfig::new(name).with_memory(self.params.guest_memory);
        let id = h
            .vmm
            .create_vm_with(config, |vm| provision_canonical(vm, name, hot_modulus))?;
        h.vm_ids.insert(name.to_string(), id);
        h.models.remove(name);
        Ok(())
    }

    /// Materialize the named VM into a live guest if it is still a model.
    /// Idempotent; a materialized VM never reverts to a model.
    pub fn materialize(&mut self, vm: &str) -> Result<HostId> {
        let idx = *self
            .vm_to_host
            .get(vm)
            .ok_or_else(|| Error::Config(format!("no VM named {vm} in the cluster")))?;
        self.materialize_at(idx, vm)?;
        Ok(self.hosts[idx].id())
    }

    /// Destroy the named VM; returns the host it lived on and its spec.
    pub fn destroy(&mut self, vm: &str) -> Result<(HostId, VmSpec)> {
        let idx = *self
            .vm_to_host
            .get(vm)
            .ok_or_else(|| Error::Config(format!("no VM named {vm} in the cluster")))?;
        let h = &mut self.hosts[idx];
        if let Some(id) = h.vm_ids.remove(vm) {
            h.vmm.destroy_vm(id)?;
        } else {
            h.models.remove(vm);
        }
        let spec = self
            .evict_spec(idx, vm)
            .ok_or_else(|| Error::Config(format!("accounting lost track of {vm}")))?;
        self.vm_to_host.remove(vm);
        self.total_vms -= 1;
        Ok((self.hosts[idx].id(), spec))
    }

    /// Update the accounting CPU demand of the named VM (a load change).
    pub fn set_cpu_demand(&mut self, vm: &str, demand_cores: f64) -> Result<HostId> {
        let idx = *self
            .vm_to_host
            .get(vm)
            .ok_or_else(|| Error::Config(format!("no VM named {vm} in the cluster")))?;
        self.deindex(idx);
        let h = &mut self.hosts[idx];
        let entry = h
            .accounting
            .placed
            .iter_mut()
            .find(|s| s.name == vm)
            .expect("vm_to_host is kept consistent with accounting");
        entry.cpu_demand_cores = demand_cores.max(0.0);
        // In-place mutation reorders nothing, but the fold must be
        // recomputed: replacing a term changes every partial sum after it.
        h.cpu_committed = h.accounting.cpu_committed();
        if let Some(m) = h.models.get_mut(vm) {
            m.cpu_demand_millicores = (demand_cores.max(0.0) * 1000.0) as u64;
        }
        self.index(idx);
        Ok(self.hosts[idx].id())
    }

    /// Size of a canonical-state full snapshot. Full snapshots capture
    /// every page regardless of content, so this is a pure function of the
    /// configured guest memory — probed once against a scratch guest.
    fn canonical_backup_size(&mut self) -> Result<ByteSize> {
        if let Some(size) = self.canonical_backup_size {
            return Ok(size);
        }
        let mut store = SnapshotStore::new();
        let config = VmConfig::new("canonical-size-probe").with_memory(self.params.guest_memory);
        let mut probe = Vm::new(config)?;
        provision_canonical(
            &mut probe,
            "canonical-size-probe",
            self.params.hot_tenant_modulus,
        )?;
        let id = probe.snapshot("canonical-size-probe", &mut store)?;
        let size = store
            .get(id)
            .map(|s| s.approx_size())
            .unwrap_or(ByteSize::ZERO);
        self.canonical_backup_size = Some(size);
        Ok(size)
    }

    /// Back up the named VM to the DR site, streaming the snapshot bytes
    /// across the fabric to the DR endpoint.
    ///
    /// A live guest is snapshotted into `store`; a still-modeled VM yields
    /// [`BackupHandle::Canonical`] with identical modelled size (and thus
    /// identical wire time) without touching guest memory at all.
    ///
    /// Returns the handle, its size, and the simulated instant the stream
    /// has fully arrived at the DR target; the transfer occupies the host's
    /// NIC and the backbone, so backup sweeps contend with live migrations.
    /// Until the arrival instant the backup is still on the wire — callers
    /// must not restore from it before then.
    pub fn backup(
        &mut self,
        vm: &str,
        label: &str,
        store: &mut SnapshotStore,
        now: Nanoseconds,
    ) -> Result<(BackupHandle, ByteSize, Nanoseconds)> {
        let idx = *self
            .vm_to_host
            .get(vm)
            .ok_or_else(|| Error::Config(format!("no VM named {vm} in the cluster")))?;
        let (handle, size) = if self.hosts[idx].vm_ids.contains_key(vm) {
            let live = self.hosts[idx].live_vm_mut(vm)?;
            let snap = live.snapshot(label, store)?;
            let size = store
                .get(snap)
                .map(|s| s.approx_size())
                .unwrap_or(ByteSize::ZERO);
            (BackupHandle::Stored(snap), size)
        } else {
            (BackupHandle::Canonical, self.canonical_backup_size()?)
        };
        let dr = self.dr_endpoint();
        let arrival = self.fabric.transfer(idx, dr, now, size.as_u64())?;
        if self.trace.is_on() {
            let lag = arrival.saturating_sub(now);
            self.trace.span(
                "dr",
                "backup",
                now,
                arrival,
                &[
                    ("vm", ArgValue::Str(vm)),
                    ("host", ArgValue::U64(idx as u64)),
                    ("bytes", ArgValue::U64(size.as_u64())),
                    ("lag_ns", ArgValue::U64(lag.as_nanos())),
                ],
            );
            self.trace.observe("backup.lag_ns", lag.as_nanos());
            self.trace.observe("backup.bytes", size.as_u64());
            self.trace.add("backups", 1);
        }
        Ok((handle, size, arrival))
    }

    /// Back up the named VM to the DR site through the content-addressed
    /// store ([`OrchParams::dedup_backups`](crate::OrchParams::dedup_backups)).
    ///
    /// The captured epoch (full when `parent` is `None`, incremental
    /// otherwise) is ingested into `cas`; only the *novel* chunks cross the
    /// fabric as `ChunkData` frames, every deduplicated page ships as a
    /// small `ChunkRef`, and the fabric is charged exactly
    /// [`rvisor_migrate::wire::dedup_backup_wire_bytes`]. A still-modeled VM
    /// participates through a scratch guest in the canonical deploy state,
    /// so fidelity pins hold: the epoch recorded for a model VM is
    /// byte-identical to the one a materialized twin would record.
    ///
    /// Until the returned arrival instant the epoch is still on the wire —
    /// callers must not restore from it before then.
    pub fn backup_dedup(
        &mut self,
        vm: &str,
        label: &str,
        cas: &mut CasStore,
        parent: Option<ManifestId>,
        now: Nanoseconds,
    ) -> Result<DedupBackup> {
        let idx = *self
            .vm_to_host
            .get(vm)
            .ok_or_else(|| Error::Config(format!("no VM named {vm} in the cluster")))?;
        let parent_snap = match parent {
            None => None,
            Some(p) => Some(
                cas.get(p)
                    .ok_or_else(|| Error::Config(format!("{p} missing from the DR store")))?
                    .snapshot_id,
            ),
        };
        let snapshot = if self.hosts[idx].vm_ids.contains_key(vm) {
            let live = self.hosts[idx].live_vm_mut(vm)?;
            live.capture_for_backup(label, parent_snap)?
        } else {
            // Model VM: rebuild the canonical deploy state it is known to
            // be in. Parked guests never execute, so an incremental epoch
            // on a model VM drains an *empty* dirty set — exactly what a
            // materialized twin parked since its last epoch would produce.
            let config = VmConfig::new(vm).with_memory(self.params.guest_memory);
            let mut scratch = Vm::new(config)?;
            provision_canonical(&mut scratch, vm, self.params.hot_tenant_modulus)?;
            if parent_snap.is_some() {
                scratch.memory().clear_dirty();
            }
            scratch.capture_for_backup(label, parent_snap)?
        };
        let n_vcpus = snapshot.vcpus.len();
        let (manifest, stats) = cas.ingest(&snapshot, parent)?;
        let wire_bytes = rvisor_migrate::wire::dedup_backup_wire_bytes(
            stats.chunks_novel,
            stats.chunks_deduped,
            n_vcpus,
        );
        let dr = self.dr_endpoint();
        let arrival = self.fabric.transfer(idx, dr, now, wire_bytes)?;
        if self.trace.is_on() {
            let lag = arrival.saturating_sub(now);
            self.trace.span(
                "dr",
                "backup",
                now,
                arrival,
                &[
                    ("vm", ArgValue::Str(vm)),
                    ("host", ArgValue::U64(idx as u64)),
                    ("bytes", ArgValue::U64(wire_bytes)),
                    ("chunks_novel", ArgValue::U64(stats.chunks_novel)),
                    ("chunks_deduped", ArgValue::U64(stats.chunks_deduped)),
                    ("lag_ns", ArgValue::U64(lag.as_nanos())),
                ],
            );
            self.trace.observe("backup.lag_ns", lag.as_nanos());
            self.trace.observe("backup.bytes", wire_bytes);
            self.trace.add("backups", 1);
        }
        Ok(DedupBackup {
            manifest,
            stats,
            wire_bytes,
            arrival,
        })
    }

    /// Power a host back on (consolidation undo, or DR capacity).
    pub fn power_on(&mut self, host: HostId) -> Result<()> {
        let idx = self.position(host)?;
        match self.hosts[idx].power {
            HostPower::Off => {
                self.deindex(idx);
                self.hosts[idx].power = HostPower::On;
                self.n_powered += 1;
                self.index(idx);
                Ok(())
            }
            HostPower::On => Ok(()),
            HostPower::Failed => Err(Error::Config(format!("{host} has failed; cannot power on"))),
        }
    }

    /// Power an *empty* host off (idempotent for already-parked hosts;
    /// failed hosts are not power-manageable, matching [`Self::power_on`]).
    pub fn power_off(&mut self, host: HostId) -> Result<()> {
        let idx = self.position(host)?;
        let h = &self.hosts[idx];
        if h.power == HostPower::Failed {
            return Err(Error::Config(format!(
                "{host} has failed; cannot power off"
            )));
        }
        if h.accounting.vm_count() > 0 {
            return Err(Error::Config(format!(
                "{host} still hosts {} VMs",
                h.accounting.vm_count()
            )));
        }
        if h.power == HostPower::On {
            self.deindex(idx);
            self.hosts[idx].power = HostPower::Off;
            self.n_powered -= 1;
            self.index(idx);
        }
        Ok(())
    }

    /// Fail a host abruptly. Every VM on it is lost; returns their specs.
    pub fn fail_host(&mut self, host: HostId) -> Result<Vec<VmSpec>> {
        let idx = self.position(host)?;
        self.deindex(idx);
        let h = &mut self.hosts[idx];
        let was_on = h.power == HostPower::On;
        let lost = std::mem::take(&mut h.accounting.placed);
        h.vm_ids.clear();
        h.models.clear();
        h.cpu_committed = h.accounting.cpu_committed();
        h.mem_committed = 0;
        // Drop the whole VMM: guest memory, switch, local snapshots — gone.
        h.vmm = Vmm::new(&format!("host-{}-dead", host.raw()));
        h.power = HostPower::Failed;
        for spec in &lost {
            self.vm_to_host.remove(&spec.name);
        }
        self.total_vms -= lost.len();
        if was_on {
            self.n_powered -= 1;
        }
        self.index(idx);
        Ok(lost)
    }

    /// The dirty rate (bytes/second) last observed for the named VM during
    /// a pre-copy migration, if any. Still-modeled VMs have never been
    /// migrated, so they report `None` (the planner treats that as cold).
    pub fn observed_dirty_rate(&self, vm: &str) -> Option<u64> {
        let idx = *self.vm_to_host.get(vm)?;
        let host = &self.hosts[idx];
        let id = *host.vm_ids.get(vm)?;
        host.vmm.observed_dirty_rate(id)
    }

    /// The named VM's spec (accounting-scale) memory — the guest-size
    /// input to the adaptive migration planner.
    pub fn spec_memory_of(&self, vm: &str) -> Option<ByteSize> {
        let idx = *self.vm_to_host.get(vm)?;
        self.hosts[idx]
            .accounting
            .placed
            .iter()
            .find(|s| s.name == vm)
            .map(|s| s.memory)
    }

    /// Live-migrate the named VM from its current host to `to` under a
    /// per-migration [`MigrationPlan`], starting no earlier than `now` (the
    /// caller's simulated clock) — the stream's fabric occupancy lands at
    /// the present, so it contends with every other migration and backup
    /// issued around the same instant.
    ///
    /// Migration touches guest memory, so a still-modeled VM is
    /// materialized first (and stays materialized ever after). A failed
    /// migration rolls back: the VM stays running and indexed on its
    /// source host, and the destination keeps no shell.
    pub fn migrate_planned(
        &mut self,
        vm: &str,
        to: HostId,
        plan: &MigrationPlan,
        now: Nanoseconds,
    ) -> Result<MigrationReport> {
        let from_idx = *self
            .vm_to_host
            .get(vm)
            .ok_or_else(|| Error::Config(format!("no VM named {vm} in the cluster")))?;
        let from = self.hosts[from_idx].id();
        if from == to {
            return Err(Error::Config(format!("{vm} is already on {to}")));
        }
        let to_idx = self.position(to)?;
        if self.hosts[to_idx].power != HostPower::On {
            return Err(Error::Config(format!("{to} is not powered on")));
        }
        let spec = self.hosts[from_idx]
            .accounting
            .placed
            .iter()
            .find(|s| s.name == vm)
            .cloned()
            .expect("vm_to_host is kept consistent with accounting");
        if !self.hosts[to_idx].fits_cached(&spec) {
            return Err(Error::CapacityExceeded(format!(
                "{vm} does not fit on {to}"
            )));
        }
        // The migration is about to stream this VM's memory: materialize.
        self.materialize_at(from_idx, vm)?;
        // Where the stream will actually start once the fabric path frees
        // up — the span below reports the queueing ahead of the transfer.
        let queued_start = self.fabric.path_free_at(from_idx, to_idx)?.max(now);

        self.deindex(from_idx);
        self.deindex(to_idx);
        // The migration streams across the shared fabric between the two
        // hosts' endpoints; its busy-time marks are what make concurrent
        // rebalance migrations and DR backups queue behind each other.
        let (src, dst) = if from_idx < to_idx {
            let (l, r) = self.hosts.split_at_mut(to_idx);
            (&mut l[from_idx], &mut r[0])
        } else {
            let (l, r) = self.hosts.split_at_mut(from_idx);
            (&mut r[0], &mut l[to_idx])
        };
        let vm_id = *src.vm_ids.get(vm).expect("materialized above");
        let trace = self.trace.clone();
        let migrated = FabricTransport::starting_at(&mut self.fabric, from_idx, to_idx, now)
            .and_then(|mut transport| {
                src.vmm
                    .migrate_to(vm_id, &mut dst.vmm, &mut transport, plan, &trace)
            });
        let (new_id, report) = match migrated {
            Ok(ok) => ok,
            Err(e) => {
                self.index(from_idx);
                self.index(to_idx);
                return Err(e);
            }
        };
        let src = &mut self.hosts[from_idx];
        src.vm_ids.remove(vm);
        let spec = src.accounting.evict(vm).expect("accounting tracked");
        src.cpu_committed = src.accounting.cpu_committed();
        src.mem_committed = src.accounting.memory_committed().as_u64();
        let dst = &mut self.hosts[to_idx];
        dst.vm_ids.insert(vm.to_string(), new_id);
        let demand = spec.cpu_demand_cores;
        let mem = spec.memory.as_u64();
        dst.accounting.place(spec).expect("fits checked above");
        dst.cpu_committed += demand;
        dst.mem_committed += mem;
        self.index(from_idx);
        self.index(to_idx);
        self.vm_to_host.insert(vm.to_string(), to_idx);
        if self.trace.is_on() {
            let end = queued_start.saturating_add(report.total_time);
            self.trace.span(
                "cluster",
                "migrate",
                now,
                end,
                &[
                    ("vm", ArgValue::Str(vm)),
                    ("from", ArgValue::U64(u64::from(from.raw()))),
                    ("to", ArgValue::U64(u64::from(to.raw()))),
                    ("engine", ArgValue::Str(report.kind.name())),
                    ("rounds", ArgValue::U64(u64::from(report.rounds))),
                    ("bytes", ArgValue::U64(report.bytes_transferred)),
                    ("downtime_ns", ArgValue::U64(report.downtime.as_nanos())),
                    (
                        "queue_wait_ns",
                        ArgValue::U64(queued_start.saturating_sub(now).as_nanos()),
                    ),
                ],
            );
            self.trace
                .observe("migration.bytes_on_wire", report.bytes_transferred);
        }
        Ok(report)
    }

    /// Recreate the named VM on `to` from a DR backup and resume it.
    ///
    /// A [`BackupHandle::Stored`] restores from the real snapshot in
    /// `store`; a [`BackupHandle::Canonical`] reconstructs the canonical
    /// snapshot the model backup stood for and restores through the exact
    /// same path, so both produce identical guest state.
    pub fn restore(
        &mut self,
        spec: &VmSpec,
        backup: BackupHandle,
        store: &SnapshotStore,
        to: HostId,
    ) -> Result<()> {
        let guest_memory = self.params.guest_memory;
        let idx = self.position(to)?;
        if self.hosts[idx].power != HostPower::On {
            return Err(Error::Config(format!("{to} is not powered on")));
        }
        if self.vm_to_host.contains_key(&spec.name) {
            return Err(Error::Config(format!(
                "a VM named {} already exists in the cluster",
                spec.name
            )));
        }
        self.place_spec(idx, spec.clone())?;
        let hot_modulus = self.params.hot_tenant_modulus;
        let restored = (|| {
            let config = VmConfig::new(&spec.name).with_memory(guest_memory);
            let restore_into = |vm: &mut Vm, snap: SnapshotId, store: &SnapshotStore| {
                vm.restore_snapshot(snap, store)?;
                vm.resume()?;
                debug_assert_eq!(vm.lifecycle(), VmLifecycle::Running);
                Ok(())
            };
            match backup {
                BackupHandle::Stored(snap) => self.hosts[idx]
                    .vmm
                    .create_vm_with(config, |vm| restore_into(vm, snap, store)),
                BackupHandle::Canonical => {
                    // Rebuild the canonical snapshot this backup stood for.
                    let mut scratch_store = SnapshotStore::new();
                    let scratch_config = VmConfig::new(&spec.name).with_memory(guest_memory);
                    let mut scratch = Vm::new(scratch_config)?;
                    provision_canonical(&mut scratch, &spec.name, hot_modulus)?;
                    let snap = scratch.snapshot("canonical", &mut scratch_store)?;
                    self.hosts[idx]
                        .vmm
                        .create_vm_with(config, |vm| restore_into(vm, snap, &scratch_store))
                }
                BackupHandle::Manifested(m) => Err(Error::Config(format!(
                    "{m} lives in the content-addressed store; use restore_manifested"
                ))),
            }
        })();
        match restored {
            Ok(id) => {
                self.hosts[idx].vm_ids.insert(spec.name.clone(), id);
                self.vm_to_host.insert(spec.name.clone(), idx);
                self.total_vms += 1;
                Ok(())
            }
            Err(e) => {
                self.evict_spec(idx, &spec.name);
                Err(e)
            }
        }
    }

    /// Recreate the named VM on `to` from a deduplicated DR epoch and
    /// resume it: the manifest chain rooted at `manifest` is applied to a
    /// fresh guest, byte-identical to restoring the same captures through
    /// [`Self::restore`].
    pub fn restore_manifested(
        &mut self,
        spec: &VmSpec,
        manifest: ManifestId,
        cas: &CasStore,
        to: HostId,
    ) -> Result<()> {
        let guest_memory = self.params.guest_memory;
        let idx = self.position(to)?;
        if self.hosts[idx].power != HostPower::On {
            return Err(Error::Config(format!("{to} is not powered on")));
        }
        if self.vm_to_host.contains_key(&spec.name) {
            return Err(Error::Config(format!(
                "a VM named {} already exists in the cluster",
                spec.name
            )));
        }
        self.place_spec(idx, spec.clone())?;
        let config = VmConfig::new(&spec.name).with_memory(guest_memory);
        let restored = self.hosts[idx].vmm.create_vm_with(config, |vm| {
            vm.restore_from_cas(manifest, cas)?;
            vm.resume()?;
            debug_assert_eq!(vm.lifecycle(), VmLifecycle::Running);
            Ok(())
        });
        match restored {
            Ok(id) => {
                self.hosts[idx].vm_ids.insert(spec.name.clone(), id);
                self.vm_to_host.insert(spec.name.clone(), idx);
                self.total_vms += 1;
                Ok(())
            }
            Err(e) => {
                self.evict_spec(idx, &spec.name);
                Err(e)
            }
        }
    }

    /// Exhaustively verify every index and cached sum against a from-scratch
    /// recomputation (test support).
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let mut total = 0;
        let mut on = 0;
        for (pos, h) in self.hosts.iter().enumerate() {
            assert_eq!(
                h.cpu_committed.to_bits(),
                h.accounting.cpu_committed().to_bits(),
                "{}: cached CPU sum drifted",
                h.id()
            );
            assert_eq!(h.mem_committed, h.accounting.memory_committed().as_u64());
            assert_eq!(h.mem_capacity, h.accounting.memory_capacity().as_u64());
            assert_eq!(
                h.vm_ids.len() + h.models.len(),
                h.accounting.vm_count(),
                "{}: every placed VM must be live or modeled",
                h.id()
            );
            total += h.accounting.vm_count();
            match h.power {
                HostPower::On => {
                    on += 1;
                    assert!(self
                        .by_util
                        .contains(&(util_key(h.cpu_utilization()), h.id())));
                    assert!(self
                        .free_cpu
                        .contains(&(util_key((h.cores - h.cpu_committed).max(0.0)), pos)));
                    assert!(self
                        .free_mem
                        .contains(&(h.mem_capacity.saturating_sub(h.mem_committed), pos)));
                    assert_eq!(
                        self.empty_powered.contains(&pos),
                        h.accounting.vm_count() == 0
                    );
                    assert!(!self.parked.contains(&pos));
                }
                HostPower::Off => {
                    assert!(self.parked.contains(&pos));
                    assert!(!self.by_util.iter().any(|&(_, id)| id == h.id()));
                    assert_eq!(h.accounting.vm_count(), 0);
                }
                HostPower::Failed => {
                    assert!(!self.parked.contains(&pos));
                    assert!(!self.by_util.iter().any(|&(_, id)| id == h.id()));
                    assert_eq!(h.accounting.vm_count(), 0);
                }
            }
            for name in h.vm_ids.keys().chain(h.models.keys()) {
                assert_eq!(self.vm_to_host.get(name), Some(&pos));
            }
        }
        assert_eq!(self.total_vms, total);
        assert_eq!(self.n_powered, on);
        assert_eq!(self.by_util.len(), on);
        assert_eq!(self.free_cpu.len(), on);
        assert_eq!(self.free_mem.len(), on);
        assert_eq!(self.vm_to_host.len(), total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_cluster::ServerRole;
    use rvisor_migrate::PlanEngine;

    /// The default plan for `engine` (what a default-parameter cluster's
    /// static engine choices lower to).
    fn plan(engine: PlanEngine) -> MigrationPlan {
        MigrationPlan {
            engine,
            ..Default::default()
        }
    }

    fn small_params() -> OrchParams {
        OrchParams {
            guest_memory: rvisor_types::ByteSize::kib(256),
            ..Default::default()
        }
    }

    fn on_demand_params() -> OrchParams {
        OrchParams {
            fidelity: VmFidelity::OnDemand,
            ..small_params()
        }
    }

    fn specs(n: usize) -> Vec<HostSpec> {
        (0..n)
            .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
            .collect()
    }

    fn web(name: &str) -> VmSpec {
        VmSpec::typical(name, ServerRole::Web)
    }

    #[test]
    fn deploy_destroy_and_accounting() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        let h = c
            .choose_host(PlacementStrategy::FirstFitDecreasing, &web("a"))
            .unwrap();
        c.deploy(h, web("a")).unwrap();
        assert_eq!(c.total_vms(), 1);
        assert_eq!(c.host_of("a"), Some(h));
        let vmm = c.hosts()[0].vmm();
        let id = vmm.find_vm("a").unwrap();
        assert_eq!(vmm.lifecycle_of(id).unwrap(), VmLifecycle::Running);
        c.check_invariants();

        let (host, spec) = c.destroy("a").unwrap();
        assert_eq!(host, h);
        assert_eq!(spec.name, "a");
        assert_eq!(c.total_vms(), 0);
        assert!(c.destroy("a").is_err());
        c.check_invariants();
    }

    #[test]
    fn migration_moves_vm_and_accounting() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("mv")).unwrap();
        let report = c
            .migrate_planned(
                "mv",
                HostId::new(1),
                &plan(PlanEngine::PreCopy),
                Nanoseconds::ZERO,
            )
            .unwrap();
        assert!(report.total_time > rvisor_types::Nanoseconds::ZERO);
        assert_eq!(c.host_of("mv"), Some(HostId::new(1)));
        assert_eq!(c.hosts()[0].accounting().vm_count(), 0);
        assert_eq!(c.hosts()[1].accounting().vm_count(), 1);
        c.check_invariants();
        // The guest's identity markers survived the move.
        let vmm = c.hosts()[1].vmm();
        let id = vmm.find_vm("mv").unwrap();
        let stamp = vmm
            .vm(id)
            .unwrap()
            .memory()
            .read_u64(GuestAddress(MARKER_BASE))
            .unwrap();
        assert_ne!(stamp, 0);
        assert!(c
            .migrate_planned(
                "mv",
                HostId::new(1),
                &plan(PlanEngine::PreCopy),
                Nanoseconds::ZERO
            )
            .is_err());
    }

    #[test]
    fn failed_migration_leaves_the_vm_indexed_on_its_source() {
        for params in [small_params(), on_demand_params()] {
            let mut c = Cluster::new(specs(2), params).unwrap();
            c.deploy(HostId::new(0), web("stay")).unwrap();
            c.check_invariants();
            // The plan is rejected by the engine after the destination shell
            // exists and the post-copy source has been paused.
            let bad = MigrationPlan {
                postcopy_fault_fraction: 2.0,
                ..plan(PlanEngine::PostCopy)
            };
            assert!(c
                .migrate_planned("stay", HostId::new(1), &bad, Nanoseconds::ZERO)
                .is_err());
            assert_eq!(c.host_of("stay"), Some(HostId::new(0)));
            assert_eq!(c.hosts()[0].accounting().vm_count(), 1);
            assert_eq!(c.hosts()[1].accounting().vm_count(), 0);
            assert_eq!(c.hosts()[1].vmm().vm_count(), 0, "the shell leaked");
            let vmm = c.hosts()[0].vmm();
            let id = vmm.find_vm("stay").unwrap();
            assert_eq!(vmm.lifecycle_of(id).unwrap(), VmLifecycle::Running);
            c.check_invariants();
            // The VM is intact: the same move with a valid plan succeeds.
            c.migrate_planned(
                "stay",
                HostId::new(1),
                &plan(PlanEngine::PostCopy),
                Nanoseconds::ZERO,
            )
            .unwrap();
            assert_eq!(c.host_of("stay"), Some(HostId::new(1)));
            c.check_invariants();
        }
    }

    #[test]
    fn backup_failure_and_restore_roundtrip() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("dr")).unwrap();
        let mut store = SnapshotStore::new();
        let (handle, size, arrival) = c
            .backup("dr", "hourly", &mut store, Nanoseconds::ZERO)
            .unwrap();
        assert!(matches!(handle, BackupHandle::Stored(_)));
        assert!(size > rvisor_types::ByteSize::ZERO);
        assert!(
            arrival > Nanoseconds::ZERO,
            "the backup stream must take modelled network time"
        );
        let stamp_before = {
            let vmm = c.hosts()[0].vmm();
            let id = vmm.find_vm("dr").unwrap();
            vmm.vm(id)
                .unwrap()
                .memory()
                .read_u64(GuestAddress(MARKER_BASE))
                .unwrap()
        };

        let lost = c.fail_host(HostId::new(0)).unwrap();
        assert_eq!(lost.len(), 1);
        assert_eq!(c.host_of("dr"), None);
        assert_eq!(c.hosts()[0].power(), HostPower::Failed);
        assert!(c.power_on(HostId::new(0)).is_err());
        c.check_invariants();

        c.restore(&lost[0], handle, &store, HostId::new(1)).unwrap();
        assert_eq!(c.host_of("dr"), Some(HostId::new(1)));
        let vmm = c.hosts()[1].vmm();
        let id = vmm.find_vm("dr").unwrap();
        let vm = vmm.vm(id).unwrap();
        assert_eq!(vm.lifecycle(), VmLifecycle::Running);
        assert_eq!(
            vm.memory().read_u64(GuestAddress(MARKER_BASE)).unwrap(),
            stamp_before
        );
        c.check_invariants();
    }

    #[test]
    fn power_management_rules() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("p")).unwrap();
        assert!(c.power_off(HostId::new(0)).is_err()); // not empty
        c.power_off(HostId::new(1)).unwrap();
        assert_eq!(c.powered_on(), 1);
        c.check_invariants();
        // An off host never receives placements.
        assert_eq!(
            c.choose_host(PlacementStrategy::Spread, &web("q")),
            Some(HostId::new(0))
        );
        c.power_on(HostId::new(1)).unwrap();
        assert_eq!(c.powered_on(), 2);
        // Spread now prefers the empty host.
        assert_eq!(
            c.choose_host(PlacementStrategy::Spread, &web("q")),
            Some(HostId::new(1))
        );
        assert_eq!(
            c.choose_host(PlacementStrategy::OnePerHost, &web("q")),
            Some(HostId::new(1))
        );
        c.check_invariants();
    }

    #[test]
    fn load_change_updates_accounting() {
        let mut c = Cluster::new(specs(1), small_params()).unwrap();
        c.deploy(HostId::new(0), web("l")).unwrap();
        let before = c.hosts()[0].cpu_utilization();
        c.set_cpu_demand("l", 8.0).unwrap();
        assert!(c.hosts()[0].cpu_utilization() > before);
        assert!(c.set_cpu_demand("ghost", 1.0).is_err());
        c.check_invariants();
    }

    #[test]
    fn fidelity_dial_defers_materialization() {
        let mut c = Cluster::new(specs(2), on_demand_params()).unwrap();
        c.deploy(HostId::new(0), web("m")).unwrap();
        assert!(!c.is_materialized("m"));
        assert_eq!(c.modeled_vms(), 1);
        assert_eq!(c.hosts()[0].vmm().vm_count(), 0, "no live guest yet");
        assert_eq!(c.total_vms(), 1);
        c.check_invariants();

        // Migration touches guest memory: the VM materializes on the way.
        c.migrate_planned(
            "m",
            HostId::new(1),
            &plan(PlanEngine::PreCopy),
            Nanoseconds::ZERO,
        )
        .unwrap();
        assert!(c.is_materialized("m"));
        assert_eq!(c.modeled_vms(), 0);
        c.check_invariants();
        // Explicit materialization is idempotent.
        assert_eq!(c.materialize("m").unwrap(), HostId::new(1));
        // The materialized guest carries the canonical identity stamp.
        let vmm = c.hosts()[1].vmm();
        let id = vmm.find_vm("m").unwrap();
        assert_eq!(
            vmm.vm(id)
                .unwrap()
                .memory()
                .read_u64(GuestAddress(MARKER_BASE))
                .unwrap(),
            identity_stamp("m")
        );
    }

    #[test]
    fn model_backup_costs_match_full_backups() {
        let mut full = Cluster::new(specs(1), small_params()).unwrap();
        let mut dialed = Cluster::new(specs(1), on_demand_params()).unwrap();
        full.deploy(HostId::new(0), web("b")).unwrap();
        dialed.deploy(HostId::new(0), web("b")).unwrap();
        let mut full_store = SnapshotStore::new();
        let mut dialed_store = SnapshotStore::new();
        let (fh, fsize, farrival) = full
            .backup("b", "hourly", &mut full_store, Nanoseconds::ZERO)
            .unwrap();
        let (dh, dsize, darrival) = dialed
            .backup("b", "hourly", &mut dialed_store, Nanoseconds::ZERO)
            .unwrap();
        assert!(matches!(fh, BackupHandle::Stored(_)));
        assert_eq!(dh, BackupHandle::Canonical);
        assert_eq!(
            fsize, dsize,
            "a model backup must cost exactly what the full snapshot costs"
        );
        assert_eq!(farrival, darrival, "identical bytes, identical wire time");
        assert_eq!(dialed_store.len(), 0, "model backups never touch the store");
    }

    /// The materialization boundary: a VM that is migrated (materializing
    /// it), backed up, failed and restored immediately afterwards behaves
    /// identically to one that was always full-fidelity.
    #[test]
    fn materialization_boundary_matches_always_full() {
        let day = |params: OrchParams| {
            let mut c = Cluster::new(specs(2), params).unwrap();
            c.deploy(HostId::new(0), web("edge")).unwrap();
            let report = c
                .migrate_planned(
                    "edge",
                    HostId::new(1),
                    &plan(PlanEngine::PreCopy),
                    Nanoseconds::ZERO,
                )
                .unwrap();
            let mut store = SnapshotStore::new();
            let (handle, size, arrival) = c
                .backup("edge", "post-migration", &mut store, report.total_time)
                .unwrap();
            let lost = c.fail_host(HostId::new(1)).unwrap();
            c.restore(&lost[0], handle, &store, HostId::new(0)).unwrap();
            c.check_invariants();
            let vmm = c.hosts()[0].vmm();
            let id = vmm.find_vm("edge").unwrap();
            let vm = vmm.vm(id).unwrap();
            (
                report,
                size,
                arrival,
                vm.memory().checksum(),
                vm.lifecycle(),
            )
        };
        let full = day(small_params());
        let dialed = day(on_demand_params());
        assert_eq!(
            full, dialed,
            "migration report, backup cost and restored guest state must be \
             identical across the fidelity dial"
        );
    }

    #[test]
    fn indexes_survive_a_mutation_gauntlet() {
        for params in [small_params(), on_demand_params()] {
            let mut c = Cluster::new(specs(4), params).unwrap();
            for i in 0..8 {
                let spec = web(&format!("vm-{i}")).with_cpu_demand(0.5 + i as f64 * 0.3);
                let h = c
                    .choose_host(PlacementStrategy::Spread, &spec)
                    .expect("capacity available");
                c.deploy(h, spec).unwrap();
                c.check_invariants();
            }
            c.set_cpu_demand("vm-3", 6.5).unwrap();
            c.check_invariants();
            c.destroy("vm-0").unwrap();
            c.check_invariants();
            let from = c.host_of("vm-5").unwrap();
            let to = c
                .hosts()
                .iter()
                .map(|h| h.id())
                .find(|&id| id != from)
                .unwrap();
            c.migrate_planned(
                "vm-5",
                to,
                &plan(PlanEngine::StopAndCopy),
                Nanoseconds::ZERO,
            )
            .unwrap();
            c.check_invariants();
            c.fail_host(HostId::new(3)).unwrap();
            c.check_invariants();
            // Indexed answers match a brute-force scan.
            let probe = web("probe").with_cpu_demand(1.25);
            let brute = c
                .hosts()
                .iter()
                .filter(|h| h.power() == HostPower::On && h.accounting().fits(&probe))
                .min_by(|a, b| {
                    a.cpu_utilization()
                        .partial_cmp(&b.cpu_utilization())
                        .unwrap()
                        .then(a.id().cmp(&b.id()))
                })
                .map(|h| h.id());
            assert_eq!(c.choose_host(PlacementStrategy::Spread, &probe), brute);
        }
    }

    #[test]
    fn dedup_backup_ships_fewer_bytes_and_restores_byte_identical() {
        // Twin clusters with twin histories: one backs up through the plain
        // full-snapshot path, one through the content-addressed store.
        let mut plain = Cluster::new(specs(2), small_params()).unwrap();
        let mut dedup = Cluster::new(specs(2), small_params()).unwrap();
        plain.deploy(HostId::new(0), web("dr")).unwrap();
        dedup.deploy(HostId::new(0), web("dr")).unwrap();

        let mut cas = CasStore::new();
        let full = dedup
            .backup_dedup("dr", "epoch-0", &mut cas, None, Nanoseconds::ZERO)
            .unwrap();
        assert!(
            full.stats.chunks_deduped > 0,
            "zero pages dedupe within the very first epoch"
        );

        // Dirty one page on both twins between epochs.
        for c in [&plain, &dedup] {
            let vmm = c.hosts()[0].vmm();
            let id = vmm.find_vm("dr").unwrap();
            vmm.vm(id)
                .unwrap()
                .memory()
                .write_u64(GuestAddress(0x2000), 0xfeed_f00d)
                .unwrap();
        }
        let inc = dedup
            .backup_dedup("dr", "epoch-1", &mut cas, Some(full.manifest), full.arrival)
            .unwrap();
        assert_eq!(
            inc.stats.chunks_novel + inc.stats.chunks_deduped,
            1,
            "the incremental epoch carries exactly the dirtied page"
        );

        let mut store = SnapshotStore::new();
        let (handle, size, _) = plain
            .backup("dr", "epoch-1", &mut store, Nanoseconds::ZERO)
            .unwrap();
        assert!(
            inc.wire_bytes * 5 <= size.as_u64(),
            "steady state must ship at least 5x fewer bytes ({} vs {})",
            inc.wire_bytes,
            size.as_u64()
        );
        assert!(
            full.wire_bytes < size.as_u64(),
            "even the first epoch dedupes its zero pages"
        );

        let lost_p = plain.fail_host(HostId::new(0)).unwrap();
        let lost_d = dedup.fail_host(HostId::new(0)).unwrap();
        plain
            .restore(&lost_p[0], handle, &store, HostId::new(1))
            .unwrap();
        dedup
            .restore_manifested(&lost_d[0], inc.manifest, &cas, HostId::new(1))
            .unwrap();
        dedup.check_invariants();

        let checksum = |c: &Cluster| {
            let vmm = c.hosts()[1].vmm();
            let id = vmm.find_vm("dr").unwrap();
            let vm = vmm.vm(id).unwrap();
            assert_eq!(vm.lifecycle(), VmLifecycle::Running);
            vm.memory().checksum()
        };
        assert_eq!(
            checksum(&plain),
            checksum(&dedup),
            "restored guests must be byte-identical across the two DR paths"
        );
        // Plain restore() refuses a manifest handle.
        let _ = plain.destroy("dr").unwrap();
        assert!(plain
            .restore(
                &lost_p[0],
                BackupHandle::Manifested(inc.manifest),
                &store,
                HostId::new(1)
            )
            .is_err());
    }

    #[test]
    fn model_dedup_backups_match_live_dedup_backups() {
        let mut full = Cluster::new(specs(1), small_params()).unwrap();
        let mut dialed = Cluster::new(specs(1), on_demand_params()).unwrap();
        full.deploy(HostId::new(0), web("b")).unwrap();
        dialed.deploy(HostId::new(0), web("b")).unwrap();
        let mut full_cas = CasStore::new();
        let mut dialed_cas = CasStore::new();
        let f0 = full
            .backup_dedup("b", "e0", &mut full_cas, None, Nanoseconds::ZERO)
            .unwrap();
        let d0 = dialed
            .backup_dedup("b", "e0", &mut dialed_cas, None, Nanoseconds::ZERO)
            .unwrap();
        assert!(
            !dialed.is_materialized("b"),
            "dedup backups must not materialize model VMs"
        );
        assert_eq!(f0.stats, d0.stats);
        assert_eq!(f0.wire_bytes, d0.wire_bytes);
        assert_eq!(
            f0.arrival, d0.arrival,
            "identical bytes, identical wire time"
        );

        // Incremental epochs: a parked guest dirties nothing in between.
        let f1 = full
            .backup_dedup("b", "e1", &mut full_cas, Some(f0.manifest), f0.arrival)
            .unwrap();
        let d1 = dialed
            .backup_dedup("b", "e1", &mut dialed_cas, Some(d0.manifest), d0.arrival)
            .unwrap();
        assert_eq!(f1.stats, d1.stats);
        assert_eq!(f1.wire_bytes, d1.wire_bytes);
        assert_eq!(
            f1.stats.chunks_novel + f1.stats.chunks_deduped,
            0,
            "a parked guest dirties no pages between epochs"
        );
        // The recorded epochs reconstruct to identical guest state.
        let fs = full_cas.reconstruct(f1.manifest).unwrap();
        let ds = dialed_cas.reconstruct(d1.manifest).unwrap();
        assert_eq!(fs.memory, ds.memory);
        assert_eq!(fs.vcpus, ds.vcpus);
        assert_eq!(fs.device_state, ds.device_state);
    }

    #[test]
    fn duplicate_ids_and_names_rejected() {
        let mut dup = specs(2);
        dup[1].id = HostId::new(0);
        assert!(Cluster::new(dup, small_params()).is_err());
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("x")).unwrap();
        assert!(c.deploy(HostId::new(1), web("x")).is_err());
    }
}

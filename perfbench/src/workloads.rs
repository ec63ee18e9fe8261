//! The four simulated days, each a fixed `(ScenarioConfig, OrchParams,
//! policy)` triple taken from the E19, E22 and E23 experiment configs.
//! `README.md` says why each was chosen.

use std::num::NonZeroU64;

use rvisor_cluster::{HostSpec, PlacementStrategy};
use rvisor_orch::{
    EngineChoice, FabricTopology, OrchParams, Orchestrator, RebalancePolicy, Scenario,
    ScenarioConfig, SpreadRebalance, ThresholdRebalance, VmFidelity, WorkloadShape,
    MIN_GUEST_MEMORY,
};
use rvisor_types::{HostId, Nanoseconds, Result};

/// Which rebalance policy a day runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Spread,
    Threshold,
}

/// One benchmark workload: a simulated day.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// First scenario seed of `--seed 0` (the experiment's own seed).
    pub base_seed: u64,
    pub hosts: usize,
    pub shape: WorkloadShape,
    pub vm_arrivals: usize,
    pub host_failures: usize,
    pub params: OrchParams,
    pub policy: Policy,
    /// Distinct scenarios an end-to-end run simulates. Days whose host
    /// cost varies with the seed run many, so a run's mean spans them.
    pub scenarios_per_run: u64,
    /// How many of those scenarios a traced run simulates.
    pub traced_scenarios: usize,
}

/// The 32-rack, 4-spine Clos fabric of the E21–E23 days.
const CLOS_32: FabricTopology = FabricTopology::Clos {
    racks: 32,
    spines: 4,
    leaf_uplink_bytes_per_second: 2_500_000_000,
    spine_bytes_per_second: 1_250_000_000,
    cross_rack_latency: Nanoseconds::from_micros(50),
};

fn warehouse_day() -> Workload {
    Workload {
        name: "warehouse_day",
        base_seed: 0xE19,
        hosts: 10_000,
        shape: WorkloadShape::DiurnalWave,
        vm_arrivals: 100_000,
        host_failures: 2,
        params: OrchParams {
            placement: PlacementStrategy::Spread,
            fidelity: VmFidelity::OnDemand,
            spread_utilization_gap: 0.05,
            guest_memory: MIN_GUEST_MEMORY,
            ..OrchParams::default()
        },
        policy: Policy::Spread,
        scenarios_per_run: 4,
        traced_scenarios: 1,
    }
}

fn dr_day(name: &'static str, dedup_backups: bool) -> Workload {
    Workload {
        name,
        base_seed: 0xE23,
        hosts: 32,
        shape: WorkloadShape::Mixed,
        vm_arrivals: 256,
        host_failures: 2,
        params: OrchParams {
            placement: PlacementStrategy::Spread,
            dedup_backups,
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            rebalance_interval: Nanoseconds::from_secs(600),
            backup_interval: Nanoseconds::from_secs(600),
            topology: CLOS_32,
            ..OrchParams::default()
        },
        policy: Policy::Threshold,
        scenarios_per_run: 6,
        traced_scenarios: 2,
    }
}

fn migration_storm_day() -> Workload {
    Workload {
        name: "migration_storm_day",
        base_seed: 0xE22,
        hosts: 32,
        shape: WorkloadShape::Mixed,
        vm_arrivals: 256,
        host_failures: 2,
        params: OrchParams {
            placement: PlacementStrategy::Spread,
            engine: Some(EngineChoice::Auto),
            spread_utilization_gap: 0.05,
            max_migrations_per_tick: 16,
            hot_tenant_modulus: NonZeroU64::new(4),
            rebalance_interval: Nanoseconds::from_secs(300),
            backup_interval: Nanoseconds::from_secs(6 * 3600),
            topology: CLOS_32,
            ..OrchParams::default()
        },
        policy: Policy::Spread,
        scenarios_per_run: 32,
        traced_scenarios: 8,
    }
}

/// Every workload, in the order the documentation lists them.
pub fn all() -> [Workload; 4] {
    [
        warehouse_day(),
        dr_day("dr_dedup_day", true),
        dr_day("dr_plain_day", false),
        migration_storm_day(),
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Scenario seeds of a run with benchmark seed `seed`:
    /// `scenarios_per_run` consecutive seeds starting at
    /// `base_seed + seed * scenarios_per_run`.
    pub fn scenario_seeds(&self, seed: u64) -> Vec<u64> {
        let first = self
            .base_seed
            .wrapping_add(seed.wrapping_mul(self.scenarios_per_run));
        (0..self.scenarios_per_run)
            .map(|j| first.wrapping_add(j))
            .collect()
    }

    /// The day's scenario for scenario seed `seed`.
    pub fn scenario(&self, seed: u64) -> Result<Scenario> {
        Scenario::generate(
            ScenarioConfig::day(seed, self.shape, self.hosts, self.vm_arrivals)
                .with_host_failures(self.host_failures),
        )
    }

    /// A fresh instance of the day's rebalance policy.
    pub fn policy(&self) -> Box<dyn RebalancePolicy> {
        match self.policy {
            Policy::Spread => Box::new(SpreadRebalance),
            Policy::Threshold => Box::new(ThresholdRebalance),
        }
    }

    /// A fresh orchestrator over the day's cluster.
    pub fn orchestrator(&self) -> Result<Orchestrator> {
        Orchestrator::new(self.host_specs(), self.params, self.policy())
    }

    /// The day's uniform cluster of modern servers.
    pub fn host_specs(&self) -> Vec<HostSpec> {
        (0..self.hosts)
            .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
            .collect()
    }
}

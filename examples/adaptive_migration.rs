//! Adaptive migration control plane (experiment E22).
//!
//! Proves the three claims of the per-migration `MigrationPlan` API end to
//! end:
//!
//! 1. **The fault lane beats the sweep** — post-copy demand faults serviced
//!    from a dedicated out-of-order stream finish sooner and see a strictly
//!    lower mean service latency than the sweep-ordered reference, at
//!    identical downtime and payload.
//! 2. **The planner is a pure table** — the adaptive `MigrationPlanner`
//!    maps (observed dirty rate, guest size, fabric backlog) to a plan with
//!    no hidden state; the same observables always pick the same plan.
//! 3. **The adaptive day dominates** — on a mixed 32-rack Clos day the
//!    planner-driven orchestrator lands a strictly lower
//!    downtime × duration integral than *every* static
//!    (engine × streams × compression) setting, because it upgrades guests
//!    it has observed dirtying pages to fault-lane post-copy — a
//!    per-migration decision no run-level knob can express.
//!
//! Every number below is simulated time; CI runs this binary twice and
//! byte-diffs the output.
//!
//! ```text
//! cargo run --release --example adaptive_migration
//! ```

use virtlab::memory::GuestMemory;
use virtlab::migrate::{
    migrate, sweep_mean_fault_latency, wire, FaultService, IdleDirtier, LoopbackTransport,
    MigrationPlan, PageCompression, PlanEngine,
};
use virtlab::net::{Link, LinkModel};
use virtlab::obs::{Align, TextTable, Trace};
use virtlab::orch::{
    EngineChoice, MigrationPlanner, OrchParams, Orchestrator, Scenario, ScenarioConfig,
    SpreadRebalance, WorkloadShape,
};
use virtlab::vcpu::VcpuState;
use virtlab::{ByteSize, Nanoseconds};

fn main() {
    fault_lane_vs_sweep();
    planner_ladder();
    adaptive_day();
}

/// -- 1. fault-lane vs sweep-ordered post-copy (2 MiB guest) --------------
fn fault_lane_vs_sweep() {
    println!("-- post-copy demand-fault service: sweep vs fault lane (2 MiB guest) --\n");
    let pages = 512u64; // 2 MiB
    let run = |fault_service: FaultService| {
        let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        for p in 0..pages {
            src.write_u64(virtlab::GuestAddress(p * virtlab::types::PAGE_SIZE), p + 1)
                .unwrap();
        }
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let plan = MigrationPlan {
            engine: PlanEngine::PostCopy,
            fault_service,
            ..Default::default()
        };
        let vcpus = [VcpuState::default()];
        let trace = Trace::off();
        migrate(
            &src,
            &dst,
            &vcpus,
            &mut transport,
            &mut IdleDirtier,
            &plan,
            &trace,
        )
        .unwrap()
    };
    let sweep = run(FaultService::Sweep);
    let lane = run(FaultService::FaultLane);
    assert_eq!(
        run(FaultService::FaultLane),
        lane,
        "fault-lane migration must replay =="
    );
    assert_eq!(lane.downtime, sweep.downtime, "identical pause either way");
    assert_eq!(lane.remote_faults, sweep.remote_faults);
    assert!(lane.total_time < sweep.total_time);

    let model = LinkModel::gigabit();
    let per_fault = model.transfer_time(virtlab::types::PAGE_SIZE + wire::FRAME_HEADER_BYTES);
    let sweep_mean = sweep_mean_fault_latency(per_fault, model.latency, sweep.remote_faults);
    assert!(lane.avg_fault_latency < sweep_mean);

    let mut table = TextTable::new(&[
        ("discipline", Align::Left),
        ("downtime", Align::Right),
        ("total time", Align::Right),
        ("faults", Align::Right),
        ("mean fault latency", Align::Right),
    ]);
    for (name, r, mean) in [
        ("sweep-ordered", &sweep, sweep_mean),
        ("fault lane", &lane, lane.avg_fault_latency),
    ] {
        table.row([
            name.to_string(),
            format!("{}", r.downtime),
            format!("{}", r.total_time),
            r.remote_faults.to_string(),
            format!("{mean}"),
        ]);
    }
    table.print();
    println!("\nsame downtime, same payload: the lane removes the serialized fault");
    println!("queue, so faulted pages are served strictly sooner \u{2714}\n");
}

/// -- 2. the planner ladder, printed as the pure table it is --------------
fn planner_ladder() {
    println!("-- the MigrationPlanner ladder (pure function of three observables) --\n");
    let planner = MigrationPlanner {
        compression: PageCompression::Xbzrle,
        ..MigrationPlanner::default()
    };
    let mut table = TextTable::new(&[
        ("dirty rate", Align::Right),
        ("guest", Align::Right),
        ("backlog", Align::Right),
        ("plan", Align::Left),
        ("reason", Align::Left),
    ]);
    let cases = [
        (0u64, ByteSize::mib(64), Nanoseconds::ZERO),
        (0, ByteSize::mib(512), Nanoseconds::ZERO),
        (0, ByteSize::gib(2), Nanoseconds::ZERO),
        (0, ByteSize::gib(2), Nanoseconds::from_millis(5)),
        (64 * 1024 * 1024, ByteSize::gib(2), Nanoseconds::ZERO),
    ];
    for (rate, guest, backlog) in cases {
        let choice = planner.plan(rate, guest, backlog);
        // Purity: the same observables always pick the same plan.
        assert_eq!(planner.plan(rate, guest, backlog), choice);
        table.row([
            format!("{rate} B/s"),
            format!("{guest}"),
            format!("{backlog}"),
            format!(
                "{} x{} {:?} ({})",
                choice.plan.engine.name(),
                choice.plan.streams,
                choice.plan.compression,
                choice.plan.fault_service.name()
            ),
            choice.reason.to_string(),
        ]);
    }
    table.print();
    println!("\nsame observables, same plan — the decision is a table, not a mood \u{2714}\n");
}

/// -- 3. the adaptive 32-rack mixed day vs every static setting -----------
fn adaptive_day() {
    println!("-- adaptive 32-rack mixed day vs every static setting --\n");
    let scenario = Scenario::generate(ScenarioConfig {
        duration: Nanoseconds::from_secs(4 * 3600),
        ..ScenarioConfig::day(22, WorkloadShape::Mixed, 32, 256)
    })
    .unwrap();
    let base = OrchParams {
        placement: virtlab::cluster::PlacementStrategy::Spread,
        topology: virtlab::orch::FabricTopology::Clos {
            racks: 32,
            spines: 4,
            leaf_uplink_bytes_per_second: 2_500_000_000,
            spine_bytes_per_second: 1_250_000_000,
            cross_rack_latency: Nanoseconds::from_micros(50),
        },
        spread_utilization_gap: 0.01,
        max_migrations_per_tick: 64,
        rebalance_interval: Nanoseconds::from_secs(300),
        backup_interval: Nanoseconds::from_secs(600),
        // One in four tenants runs the write-heavy canonical workload, so
        // re-migrated guests carry real observed dirty rates.
        hot_tenant_modulus: std::num::NonZeroU64::new(4),
        ..OrchParams::default()
    };
    let hosts = || {
        (0..32u32)
            .map(|i| virtlab::cluster::HostSpec::modern_server(virtlab::types::HostId::new(i)))
            .collect()
    };
    let run_adaptive = || {
        let params = OrchParams {
            engine: Some(EngineChoice::Auto),
            ..base
        };
        let mut orch = Orchestrator::new(hosts(), params, Box::new(SpreadRebalance)).unwrap();
        orch.set_planner(MigrationPlanner {
            tiny_guest_max: ByteSize::new(0),
            hot_dirty_rate: 1,
            big_guest_min: ByteSize::new(1),
            idle_backlog_max: Nanoseconds(u64::MAX),
            wide_streams: std::num::NonZeroUsize::new(4).unwrap(),
            compression: PageCompression::Xbzrle,
        });
        orch.run(&scenario).unwrap()
    };
    let adaptive = run_adaptive();
    assert_eq!(run_adaptive(), adaptive, "adaptive day must replay ==");
    assert!(adaptive.planner_fault_lane > 0);

    let mut table = TextTable::new(&[
        ("setting", Align::Left),
        ("migrations", Align::Right),
        ("downtime total", Align::Right),
        ("duration total", Align::Right),
        ("downtime x duration", Align::Right),
    ]);
    table.row([
        "adaptive (planner)".to_string(),
        adaptive.migrations_completed.to_string(),
        format!("{}", adaptive.migration_downtime_total),
        format!("{}", adaptive.migration_time_total),
        adaptive.downtime_duration_integral.to_string(),
    ]);
    for engine in [
        EngineChoice::StopAndCopy,
        EngineChoice::PreCopy,
        EngineChoice::PostCopy,
    ] {
        for streams in [1usize, 4] {
            // Compression only changes pre-copy (the raw-source engines'
            // XBZRLE days are bit-identical to their raw days).
            let compressions: &[PageCompression] = if engine == EngineChoice::PreCopy {
                &[PageCompression::None, PageCompression::Xbzrle]
            } else {
                &[PageCompression::None]
            };
            for &compression in compressions {
                let params = OrchParams {
                    engine: Some(engine),
                    migration_streams: std::num::NonZeroUsize::new(streams).unwrap(),
                    migration_compression: compression,
                    ..base
                };
                let r = Orchestrator::new(hosts(), params, Box::new(SpreadRebalance))
                    .unwrap()
                    .run(&scenario)
                    .unwrap();
                assert!(
                    adaptive.downtime_duration_integral < r.downtime_duration_integral,
                    "adaptive must beat static {engine:?} x{streams} {compression:?}"
                );
                table.row([
                    format!("{engine:?} x{streams} {compression:?}"),
                    r.migrations_completed.to_string(),
                    format!("{}", r.migration_downtime_total),
                    format!("{}", r.migration_time_total),
                    r.downtime_duration_integral.to_string(),
                ]);
            }
        }
    }
    table.print();
    println!(
        "\nplanner decisions: {} ({} pre-copy, {} post-copy, {} on the fault lane)",
        adaptive.planner_decisions,
        adaptive.planner_pre_copy,
        adaptive.planner_post_copy,
        adaptive.planner_fault_lane
    );
    println!("\nthe adaptive day beats every static setting on the downtime x duration");
    println!("integral, and the whole day replays == \u{2714}");
}

//! Pipelined, multi-stream migration (experiment E18).
//!
//! Proves the three claims of the parallel data plane end to end:
//!
//! 1. **Equivalence** — over a loopback transport, the pipelined data plane
//!    is `MigrationReport`-`==` and destination-byte-identical to the serial
//!    plane at every stream count, for all three engines.
//! 2. **Honest network model** — on the shared fabric, multi-stream runs
//!    move the same payload bytes and are never *faster* in simulated time
//!    (fair-share chunk streams; each stream pays its own MTU framing).
//! 3. **Determinism** — same-seed multi-stream runs and a whole
//!    `migration_streams = 4` datacenter day replay `==`; thread
//!    scheduling inside the pipeline can never leak into the simulated
//!    clock. CI runs this binary twice and byte-diffs the output.
//!
//! ```text
//! cargo run --release --example parallel_migration
//! ```

use std::num::NonZeroUsize;

use virtlab::memory::GuestMemory;
use virtlab::migrate::{
    migrate, ConstantRateDirtier, DirtySource, FabricTransport, IdleDirtier, LoopbackTransport,
    MigrationPlan, MigrationReport, PlanEngine, Transport,
};
use virtlab::net::{Fabric, FabricParams, Link, LinkModel};
use virtlab::obs::{Align, TextTable, Trace};
use virtlab::orch::{run_datacenter, OrchParams, Scenario, ScenarioConfig, WorkloadShape};
use virtlab::types::PAGE_SIZE;
use virtlab::vcpu::VcpuState;
use virtlab::{ByteSize, GuestAddress, Nanoseconds};

const PAGES: u64 = 2048; // an 8 MiB guest

fn streams(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("non-zero")
}

/// Content pages, zero gaps straddling stripe boundaries, an all-zero tail:
/// the pattern that stresses cross-stripe zero-run stitching.
fn memories() -> (GuestMemory, GuestMemory) {
    let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    for p in 0..PAGES {
        if p % 7 < 4 && p < PAGES - PAGES / 4 {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 11 + 3)
                .unwrap();
        }
    }
    (src, dst)
}

/// One migration of `source` through the plan-driven entry point, tracing
/// off: serial for one stream, pipelined for more.
fn run(
    source: &GuestMemory,
    dest: &GuestMemory,
    transport: &mut dyn Transport,
    dirtier: &mut dyn DirtySource,
    plan: &MigrationPlan,
) -> MigrationReport {
    let vcpus = [VcpuState::default()];
    migrate(
        source,
        dest,
        &vcpus,
        transport,
        dirtier,
        plan,
        &Trace::off(),
    )
    .unwrap()
}

fn loopback(engine: PlanEngine, n_streams: usize) -> (MigrationReport, u64) {
    let (src, dst) = memories();
    let mut link = Link::new(LinkModel::gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let plan = MigrationPlan {
        engine,
        streams: streams(n_streams),
        ..Default::default()
    };
    let report = run(&src, &dst, &mut transport, &mut IdleDirtier, &plan);
    (report, dst.checksum())
}

fn fabric_pipelined(n_streams: usize, dirty: f64) -> (MigrationReport, u64, u64) {
    let params = FabricParams::office_lan();
    let (src, dst) = memories();
    let mut fabric = Fabric::new(2, params).unwrap();
    let report = {
        let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
            params.nic_bytes_per_second,
            dirty,
            0,
            PAGES,
        );
        let plan = MigrationPlan {
            streams: streams(n_streams),
            ..Default::default()
        };
        run(&src, &dst, &mut transport, &mut dirtier, &plan)
    };
    assert_eq!(
        src.checksum(),
        dst.checksum(),
        "destination must hold the source's final image"
    );
    (report, dst.checksum(), fabric.wire_bytes_carried())
}

fn main() {
    println!("-- pipelined engine == serial engine (8 MiB loopback) --\n");
    for engine in [
        PlanEngine::StopAndCopy,
        PlanEngine::PreCopy,
        PlanEngine::PostCopy,
    ] {
        let name = engine.name();
        let (serial, serial_sum) = loopback(engine, 1);
        for n in [2usize, 4, 8] {
            let (pipelined, pipelined_sum) = loopback(engine, n);
            assert_eq!(pipelined, serial, "{name} diverged at {n} streams");
            assert_eq!(pipelined_sum, serial_sum, "{name} memory at {n} streams");
        }
        println!(
            "{:<14} total {:>12}  downtime {:>12}  bytes {:>9}   == at 1/2/4/8 streams \u{2714}",
            name,
            format!("{}", serial.total_time),
            format!("{}", serial.downtime),
            serial.bytes_transferred,
        );
    }
    println!(
        "\nevery engine: pipelined report and memory identical to the serial stream \u{2714}\n"
    );

    // The fair-share multi-stream fabric model: same payload, per-stream
    // MTU framing, monotonically non-decreasing simulated time.
    println!("-- multi-stream fabric sweep (1 Gbit/s LAN, 30% dirty rate) --\n");
    let mut table = TextTable::new(&[
        ("streams", Align::Left),
        ("total", Align::Right),
        ("downtime", Align::Right),
        ("bytes", Align::Right),
        ("wire bytes", Align::Right),
    ]);
    let mut last_total = Nanoseconds::ZERO;
    let mut payload = None;
    for n in [1usize, 2, 4, 8] {
        let (report, _, wire_bytes) = fabric_pipelined(n, 0.3);
        let (replay, _, _) = fabric_pipelined(n, 0.3);
        assert_eq!(report, replay, "{n}-stream fabric run must replay ==");
        assert!(
            report.total_time >= last_total,
            "fair-share striping must never beat the aggregate stream"
        );
        match payload {
            None => payload = Some(report.bytes_transferred),
            Some(b) => assert_eq!(report.bytes_transferred, b, "payload must not change"),
        }
        last_total = report.total_time;
        table.row([
            n.to_string(),
            format!("{}", report.total_time),
            format!("{}", report.downtime),
            report.bytes_transferred.to_string(),
            wire_bytes.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nsame payload at every stream count; simulated time pays per-stream framing \u{2714}"
    );
    println!("every fabric run above replayed ==-identically \u{2714}\n");

    // A whole datacenter day whose rebalance migrations run through the
    // pipelined 4-stream data plane.
    println!("-- datacenter day with migration_streams = 4 --\n");
    let scenario = Scenario::generate(
        ScenarioConfig::day(0xE18, WorkloadShape::DiurnalWave, 8, 96).with_host_failures(1),
    )
    .unwrap();
    let params = OrchParams {
        migration_streams: streams(4),
        rebalance_interval: Nanoseconds::from_secs(900),
        backup_interval: Nanoseconds::from_secs(1800),
        ..OrchParams::default()
    };
    let report = run_datacenter(
        8,
        params,
        Box::new(virtlab::orch::ThresholdRebalance),
        &scenario,
    )
    .unwrap();
    let replay = run_datacenter(
        8,
        params,
        Box::new(virtlab::orch::ThresholdRebalance),
        &scenario,
    )
    .unwrap();
    assert_eq!(report, replay, "multi-stream day must replay identically");
    println!(
        "migrations completed {:>6}   downtime total {:>12}   migration bytes {:>12}",
        report.migrations_completed,
        format!("{}", report.migration_downtime_total),
        report.migration_bytes,
    );
    println!(
        "backups taken       {:>6}   backup time    {:>12}   backup bytes    {:>12}",
        report.backups_taken,
        format!("{}", report.backup_time_total),
        report.backup_bytes,
    );
    println!("\nsame-seed 4-stream datacenter day replays ==-identically \u{2714}");
}

//! Experiment E18 — the pipelined, multi-stream migration data plane:
//! streams × bandwidth sweep of the *simulated* cost (fair-share chunk
//! streams on the shared fabric — same payload bytes, per-stream MTU
//! framing, never faster than the aggregate in simulated time), then the
//! wall-clock speedup the pipeline actually buys (encode workers + sink
//! thread overlapping on host cores, byte-identical to the serial stream).
//!
//! The simulated table is printed first (deterministic, host-independent);
//! the wall-clock section depends on the host's core count — the header
//! prints `available_parallelism` so numbers are interpretable. On a
//! single-core host the pipeline degrades to roughly serial speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::num::NonZeroUsize;
use std::time::Duration;

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    migrate, ConstantRateDirtier, DirtySource, FabricTransport, IdleDirtier, LoopbackTransport,
    MigrationPlan, MigrationReport, Transport,
};
use rvisor_net::{ClosFabric, ClosParams, FabricParams, Link, LinkModel, DEFAULT_CHUNK_OVERHEAD};
use rvisor_obs::Trace;
use rvisor_types::{ByteSize, GuestAddress, Nanoseconds, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

const PAGES: u64 = 1024; // 4 MiB guest

fn memories() -> (GuestMemory, GuestMemory) {
    let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    for p in 0..PAGES {
        if p % 4 != 3 {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 11 + 3)
                .unwrap();
        }
    }
    (src, dst)
}

fn fabric_params(nic: u64) -> FabricParams {
    FabricParams {
        nic_bytes_per_second: nic,
        backbone_bytes_per_second: nic,
        latency: Nanoseconds::from_micros(200),
        mtu: 1500,
        chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
    }
}

/// A pre-copy of a fresh guest over `transport` on `streams` streams:
/// serial for one, pipelined for more.
fn run(
    transport: &mut dyn Transport,
    dirtier: &mut dyn DirtySource,
    streams: usize,
) -> MigrationReport {
    let (src, dst) = memories();
    let plan = MigrationPlan {
        streams: NonZeroUsize::new(streams).unwrap(),
        ..Default::default()
    };
    let vcpus = [VcpuState::default()];
    migrate(&src, &dst, &vcpus, transport, dirtier, &plan, &Trace::off()).unwrap()
}

/// A dirtying pre-copy across a 2-host fabric; also returns the fabric's
/// wire bytes (payload plus per-stream chunk framing).
fn fabric_run(params: FabricParams, streams: usize, dirty: f64) -> (MigrationReport, u64) {
    let mut fabric = ClosFabric::new(2, ClosParams::single_spine(params, 2)).unwrap();
    let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
    let mut dirtier =
        ConstantRateDirtier::from_bandwidth_fraction(params.nic_bytes_per_second, dirty, 0, PAGES);
    let report = run(&mut transport, &mut dirtier, streams);
    (report, fabric.wire_bytes_carried())
}

fn loopback_run(streams: usize) -> MigrationReport {
    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    run(&mut transport, &mut IdleDirtier, streams)
}

fn print_table() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nE18: pipelined multi-stream migration (4 MiB pre-copy, 30% dirty rate)");
    println!("host cores available: {cores}\n");
    println!(
        "{:<8} {:>8} {:>14} {:>12} {:>12} {:>12}",
        "nic", "streams", "total", "downtime", "bytes", "wire bytes"
    );
    for (name, nic) in [("10G", 1_250_000_000u64), ("1G", 125_000_000)] {
        let mut serial_bytes = None;
        for streams in [1usize, 2, 4, 8] {
            let params = fabric_params(nic);
            let (report, wire_bytes) = fabric_run(params, streams, 0.3);
            // Same-seed replay is `==` (thread scheduling cannot leak into
            // the simulated clock).
            let (replay, _) = fabric_run(params, streams, 0.3);
            assert_eq!(report, replay, "multi-stream run must replay ==");
            // Fair-share chunk streams move the same payload; only the
            // per-stream MTU framing grows with the stream count.
            let payload = report.bytes_transferred;
            match serial_bytes {
                None => serial_bytes = Some(payload),
                Some(b) => assert_eq!(payload, b, "striping must not change payload bytes"),
            }
            println!(
                "{:<8} {:>8} {:>14} {:>12} {:>12} {:>12}",
                name,
                streams,
                format!("{}", report.total_time),
                format!("{}", report.downtime),
                payload,
                wire_bytes,
            );
        }
    }
    println!(
        "\nsimulated time never improves with streams (single-spine fair share);\n\
         the wall-clock speedup below is what parallelism buys on {cores} core(s)\n"
    );
}

fn bench(c: &mut Criterion) {
    print_table();

    let mut group = c.benchmark_group("e18_parallel_migration");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(20);

    group.throughput(Throughput::Bytes(PAGES * PAGE_SIZE));
    group.bench_function("precopy_serial_4mib", |b| b.iter(|| loopback_run(1)));
    for streams in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("precopy_pipelined_4mib", format!("{streams}way")),
            &streams,
            |b, &streams| b.iter(|| loopback_run(streams)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Experiment E17 — wire-format migration over the modelled network
//! fabric: pre-copy total time and downtime vs NIC bandwidth and MTU, the
//! cost of the wire protocol itself (loopback stream vs direct in-memory
//! engine — zero by construction, measured to prove it), and the
//! encode/decode throughput of the frame codec.
//!
//! The simulated table is printed first (deterministic, host-independent);
//! Criterion then measures the wall-clock cost of the codec hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    migrate, ConstantRateDirtier, FabricTransport, IdleDirtier, LoopbackTransport, MigrationConfig,
    MigrationPlan, MigrationReport, MigrationSink, MigrationSource, PreCopy, Transport,
};
use rvisor_net::{Fabric, FabricParams, Link, LinkModel, DEFAULT_CHUNK_OVERHEAD};
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

fn fabric_params(nic: u64, mtu: u64) -> FabricParams {
    FabricParams {
        nic_bytes_per_second: nic,
        backbone_bytes_per_second: nic,
        latency: Nanoseconds::from_micros(200),
        mtu,
        chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
    }
}

fn fabric_precopy(params: FabricParams, dirty: f64) -> MigrationReport {
    let (src, dst) = memories();
    let mut fabric = Fabric::new(2, params).unwrap();
    let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
    let mut dirtier =
        ConstantRateDirtier::from_bandwidth_fraction(params.nic_bytes_per_second, dirty, 0, PAGES);
    migrate(
        &src,
        &dst,
        &[VcpuState::default()],
        &mut transport,
        &mut dirtier,
        &MigrationPlan::default(),
        &Trace::off(),
    )
    .unwrap()
}

fn print_table() {
    println!("\nE17 — wire migration over the fabric (4 MiB guest, 30% dirty rate)");
    println!(
        "{:<8} {:>6} {:>14} {:>12} {:>8} {:>12} {:>14}",
        "nic", "mtu", "total", "downtime", "rounds", "bytes", "wire-amplif."
    );
    for (name, nic) in [
        ("10G", 1_250_000_000u64),
        ("1G", 125_000_000),
        ("100M", 12_500_000),
    ] {
        for mtu in [1500u64, 9000] {
            let params = fabric_params(nic, mtu);
            let r = fabric_precopy(params, 0.3);
            let wire_amplification =
                params.wire_bytes(r.bytes_transferred) as f64 / r.bytes_transferred as f64;
            println!(
                "{:<8} {:>6} {:>14} {:>12} {:>8} {:>12} {:>14.4}",
                name,
                mtu,
                format!("{}", r.total_time),
                format!("{}", r.downtime),
                r.rounds,
                r.bytes_transferred,
                wire_amplification,
            );
        }
    }

    // Protocol cost at equal modelled bandwidth: loopback stream vs the
    // direct in-memory engine (equal by construction; printed as proof).
    let (src, dst) = memories();
    let mut link = Link::new(LinkModel::gigabit());
    let direct = PreCopy::migrate(
        &src,
        &dst,
        &[VcpuState::default()],
        &mut link,
        &mut IdleDirtier,
        &MigrationConfig::default(),
    )
    .unwrap();
    let (src2, dst2) = memories();
    let mut link2 = Link::new(LinkModel::gigabit());
    let mut transport = LoopbackTransport::new(&mut link2);
    let streamed = migrate(
        &src2,
        &dst2,
        &[VcpuState::default()],
        &mut transport,
        &mut IdleDirtier,
        &MigrationPlan::default(),
        &Trace::off(),
    )
    .unwrap();
    assert_eq!(streamed, direct);
    println!(
        "\nloopback stream == direct engine: total {}, downtime {}, {} bytes \
         (the wire protocol is free at equal modelled bandwidth)",
        streamed.total_time, streamed.downtime, streamed.bytes_transferred
    );
}

fn bench(c: &mut Criterion) {
    print_table();

    let mut group = c.benchmark_group("e17_wire_migration");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(50))
        .measurement_time(Duration::from_millis(400));

    // Codec throughput: encode one full round of raw page frames.
    let (src, dst) = memories();
    group.throughput(Throughput::Bytes(PAGES * PAGE_SIZE));
    group.bench_function("encode_round_raw", |b| {
        let mut link = Link::new(LinkModel::ten_gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let pages: Vec<u64> = (0..PAGES).collect();
        b.iter(|| {
            let mut source = MigrationSource::raw(&src);
            source.encode_round(&pages, &mut transport).unwrap();
            let (_, burst) = transport.deliver(Nanoseconds::ZERO).unwrap();
            let len = burst.len();
            transport.recycle(burst);
            len
        });
    });

    // Decode + checksum-verify + apply one full round onto the destination.
    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let mut source = MigrationSource::raw(&src);
    source.send_hello(&mut transport).unwrap();
    source
        .encode_round(&(0..PAGES).collect::<Vec<_>>(), &mut transport)
        .unwrap();
    let (_, burst) = transport.deliver(Nanoseconds::ZERO).unwrap();
    group.bench_function("decode_apply_round", |b| {
        b.iter(|| {
            let mut sink = MigrationSink::new(&dst);
            sink.apply_burst(&burst).unwrap();
            sink.pages_applied()
        });
    });

    // A full streamed pre-copy, loopback vs fabric.
    group.throughput(Throughput::Bytes(PAGES * PAGE_SIZE));
    group.bench_function("precopy_loopback_4mib", |b| {
        b.iter(|| {
            let (src, dst) = memories();
            let mut link = Link::new(LinkModel::ten_gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            migrate(
                &src,
                &dst,
                &[VcpuState::default()],
                &mut transport,
                &mut IdleDirtier,
                &MigrationPlan::default(),
                &Trace::off(),
            )
            .unwrap()
        });
    });
    for mtu in [1500u64, 9000] {
        group.bench_with_input(
            BenchmarkId::new("precopy_fabric_4mib", format!("mtu{mtu}")),
            &mtu,
            |b, &mtu| {
                b.iter(|| fabric_precopy(fabric_params(1_250_000_000, mtu), 0.3));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Integration tests for the memory-overcommit, compressed-migration,
//! NUMA-placement and backup/DR subsystems, exercised end to end through the
//! public facade: real VMs under a `Vmm`, the KSM scanner feeding the VDI
//! estimator, compressed pre-copy between two managers, and a backup/restore
//! drill that survives a faulty backing disk.

use virtlab::block::{BlockBackend, FaultKind, FaultPlan, FaultyDisk, RamDisk};
use virtlab::cluster::{
    DesktopProfile, HostSpec, NumaHost, NumaPolicy, NumaTopology, VdiConfig, VdiEstimator, VmSpec,
};
use virtlab::memory::{GuestMemory, KsmConfig};
use virtlab::migrate::{LoopbackTransport, MigrationPlan, PageCompression};
use virtlab::net::{Link, LinkModel};
use virtlab::obs::Trace;
use virtlab::snapshot::{BackupPolicy, BackupSimulator, BackupTarget};
use virtlab::types::{HostId, Nanoseconds, VmId, PAGE_SIZE};
use virtlab::vcpu::VcpuState;
use virtlab::vmm::VmConfig;
use virtlab::{ByteSize, GuestAddress, Vmm};

/// Build a manager hosting `count` VMs cloned from the same synthetic image.
fn vmm_with_clones(count: u32, memory: ByteSize, shared_fraction: f64) -> Vmm {
    let mut vmm = Vmm::new("pool-host");
    for d in 0..count {
        let id = vmm
            .create_vm(VmConfig::new(&format!("clone-{d}")).with_memory(memory))
            .expect("create VM");
        let vm = vmm.vm(id).expect("vm exists");
        let pages = vm.memory().total_pages();
        let shared = (pages as f64 * shared_fraction) as u64;
        for p in 0..pages {
            let value = if p < shared {
                0xcafe_0000_0000 + p * 37
            } else {
                (d as u64 + 1) * 5_000_011 + p
            };
            vm.memory()
                .write_u64(GuestAddress(p * PAGE_SIZE), value)
                .expect("seed");
        }
    }
    vmm
}

#[test]
fn ksm_scanner_converges_to_the_analysis_bound_and_feeds_vdi_sizing() {
    let vmm = vmm_with_clones(4, ByteSize::mib(8), 0.5);

    let analysis = vmm.dedup_analysis().expect("analysis");
    assert!(
        analysis.savings_fraction() > 0.3,
        "clones share half their pages: {analysis:?}"
    );

    let mut ksm = vmm.ksm_manager(KsmConfig::default());
    ksm.scan_until_stable(8).expect("scan");
    let stats = ksm.stats();
    assert_eq!(
        stats.pages_saved(),
        analysis.pages_saved(),
        "scanner must reach the bound"
    );
    assert!(
        stats.sharing_ratio() >= 3.9,
        "four identical copies share one page"
    );

    // The measured sharing fraction feeds the VDI density estimate and buys
    // strictly more desktops than assuming no sharing at all.
    let host = HostSpec::modern_server(HostId::new(0));
    let no_sharing = VdiConfig {
        page_sharing_fraction: 0.0,
        ..VdiConfig::typical(DesktopProfile::KnowledgeWorker)
    };
    let measured = no_sharing.with_measured_sharing(&analysis);
    let base = VdiEstimator::new(host.clone(), no_sharing)
        .unwrap()
        .density();
    let tuned = VdiEstimator::new(host, measured).unwrap().density();
    assert!(tuned.desktops > base.desktops);
}

#[test]
fn writes_after_the_scan_break_sharing_and_lower_the_savings() {
    let vmm = vmm_with_clones(2, ByteSize::mib(4), 1.0);
    let mut ksm = vmm.ksm_manager(KsmConfig::default());
    ksm.scan_until_stable(6).expect("scan");
    let before = ksm.stats().pages_saved();
    assert!(before > 0);

    // The first clone's guest writes into a shared page.
    let id = vmm.vm_ids()[0];
    let vm = vmm.vm(id).expect("vm");
    vm.memory()
        .write_u64(GuestAddress(0), 0xdead_beef)
        .expect("write");
    ksm.notify_write(id, 0);

    assert_eq!(ksm.stats().pages_saved(), before - 1);
    assert_eq!(ksm.stats().cow_breaks, 1);
}

#[test]
fn compressed_precopy_between_managers_moves_less_and_stays_correct() {
    let run = |compression: PageCompression| {
        let mut source = Vmm::new("source");
        let id = source
            .create_vm(VmConfig::new("moving").with_memory(ByteSize::mib(8)))
            .expect("create");
        {
            let vm = source.vm(id).expect("vm");
            // A quarter of the guest holds data; the rest stays zero.
            let pages = vm.memory().total_pages();
            for p in 0..pages / 4 {
                vm.memory()
                    .write_u64(GuestAddress(p * PAGE_SIZE), p * 3 + 1)
                    .expect("seed");
            }
        }
        let source_checksum = source.vm(id).unwrap().memory().checksum();
        let mut dest = Vmm::new("dest");
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let plan = MigrationPlan {
            compression,
            ..Default::default()
        };
        let (dest_id, report) = source
            .migrate_to(id, &mut dest, &mut transport, &plan, &Trace::off())
            .expect("migrate");
        assert_eq!(
            dest.vm(dest_id).unwrap().memory().checksum(),
            source_checksum
        );
        report
    };

    let raw = run(PageCompression::None);
    let zero = run(PageCompression::ZeroPages);
    let xbzrle = run(PageCompression::Xbzrle);
    assert!(zero.bytes_transferred < raw.bytes_transferred / 2);
    assert!(xbzrle.bytes_transferred <= zero.bytes_transferred);
    assert!(zero.total_time < raw.total_time);
}

#[test]
fn numa_packing_keeps_the_fleet_local_where_interleaving_pays_the_penalty() {
    let fleet: Vec<VmSpec> = VmSpec::nireus_fleet().into_iter().take(20).collect();
    let topology = NumaTopology::of_host(&HostSpec::modern_server(HostId::new(0)), 2);

    let mut packed = NumaHost::new(topology.clone());
    let mut interleaved = NumaHost::new(topology);
    for vm in &fleet {
        packed
            .place(vm, NumaPolicy::Packed)
            .expect("packed placement");
        interleaved
            .place(vm, NumaPolicy::Interleaved)
            .expect("interleaved placement");
    }
    assert!(packed.avg_local_fraction() > 0.99);
    assert!(interleaved.avg_local_fraction() < 0.6);
    assert!(packed.avg_expected_slowdown() < interleaved.avg_expected_slowdown());
    assert!(interleaved.memory_imbalance() <= packed.memory_imbalance() + 1e-9);
}

#[test]
fn backup_schedule_restores_after_a_week_of_writes() {
    let memory = GuestMemory::flat(ByteSize::mib(16)).expect("memory");
    for p in 0..memory.total_pages() {
        memory
            .write_u64(GuestAddress(p * PAGE_SIZE), p + 7)
            .expect("seed");
    }
    memory.clear_dirty();

    let mut sim = BackupSimulator::new(
        VmId::new(0),
        BackupPolicy::weekly_full_daily_incremental(),
        BackupTarget::default(),
    )
    .expect("simulator");
    for day in 0..7u64 {
        for w in 0..16u64 {
            let page = (day * 16 + w) % memory.total_pages();
            memory
                .write_u64(GuestAddress(page * PAGE_SIZE), 0xfeed_0000 + day * 100 + w)
                .expect("write");
        }
        sim.run_interval(&memory, &[VcpuState::default()])
            .expect("backup");
    }
    let report = sim.report();
    assert_eq!(report.backups_taken, 7);
    assert_eq!(report.fulls_taken, 1);
    assert_eq!(report.rpo, Nanoseconds::from_secs(24 * 3600));
    assert!(report.storage_saving_fraction() > 0.5);

    let replacement = GuestMemory::flat(ByteSize::mib(16)).expect("replacement");
    let (_, rto) = sim.restore_latest(&replacement).expect("restore");
    assert_eq!(replacement.checksum(), memory.checksum());
    assert!(rto > Nanoseconds::ZERO);
}

#[test]
fn faulty_disk_surfaces_errors_without_corrupting_good_sectors() {
    // A backup target whose middle sectors have gone bad: writes around the
    // bad range succeed and read back intact, writes into it fail loudly.
    let plan = FaultPlan::none().with_bad_range(64, 95, FaultKind::Any);
    let mut disk = FaultyDisk::new(RamDisk::new(ByteSize::mib(1)), plan);

    let payload = vec![0xabu8; 512];
    let mut failures = 0;
    for sector in 0..256u64 {
        if disk.write_sectors(sector, &payload).is_err() {
            failures += 1;
        }
    }
    assert_eq!(failures, 32);
    for sector in (0..64u64).chain(96..256) {
        let mut out = vec![0u8; 512];
        disk.read_sectors(sector, &mut out).expect("good sector");
        assert_eq!(out, payload);
    }
    assert_eq!(disk.fault_stats().range_failures as usize, 32);

    // A transient outage that heals: after recovery everything succeeds again.
    let plan = FaultPlan::none()
        .with_bad_range(0, u64::MAX / 2, FaultKind::Write)
        .with_recovery_after(3);
    let mut flaky = FaultyDisk::new(RamDisk::new(ByteSize::mib(1)), plan);
    let mut errors = 0;
    for attempt in 0..6u64 {
        if flaky.write_sectors(attempt, &payload).is_err() {
            errors += 1;
        }
    }
    assert_eq!(errors, 3);
    assert_eq!(flaky.fault_stats().passed, 3);
}

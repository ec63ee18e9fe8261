//! Fleet-level integration tests: consolidation planning feeding real VMMs,
//! live migration between managers, snapshot-based disaster recovery, and
//! the cost model — the operational story end to end.

use virtlab::block::{synthetic_os_image, CloneStrategy, ImageLibrary, StorageModel};
use virtlab::cluster::{
    ConsolidationPlanner, CostModel, HostSpec, PlacementStrategy, Provisioner, VmSpec,
};
use virtlab::migrate::{LoopbackTransport, MigrationPlan, MigrationReport};
use virtlab::net::{Link, LinkModel};
use virtlab::obs::Trace;
use virtlab::types::{GuestAddress, HostId};
use virtlab::vcpu::{Workload, WorkloadKind};
use virtlab::vmm::VmLifecycle;
use virtlab::{ByteSize, Vm, VmConfig, Vmm};

#[test]
fn consolidation_plan_boots_real_vms_on_each_host() {
    // Plan a small fleet, then actually create a Vmm per host and a (scaled
    // down) VM per placed workload, and run them all.
    let fleet: Vec<VmSpec> = VmSpec::nireus_fleet().into_iter().take(12).collect();
    let planner = ConsolidationPlanner::new(HostSpec::deck_era_server(HostId::new(0)), 10);
    let plan = planner
        .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
        .unwrap();
    assert!(plan.unplaced.is_empty());

    let mut hosts: Vec<Vmm> = Vec::new();
    for host in &plan.hosts {
        let mut vmm = Vmm::new(&host.spec.id.to_string());
        for vm_spec in &host.placed {
            // Scale memory down so the test stays fast; the placement itself
            // was validated against the real sizes.
            let id = vmm
                .create_vm(VmConfig::new(&vm_spec.name).with_memory(ByteSize::mib(4)))
                .unwrap();
            let w = Workload::new(WorkloadKind::ComputeBound { iterations: 200 }).unwrap();
            vmm.vm_mut(id).unwrap().load_workload(&w).unwrap();
        }
        hosts.push(vmm);
    }
    assert_eq!(hosts.len(), plan.hosts_used());
    let mut total_vms = 0;
    for vmm in &mut hosts {
        vmm.run_all_to_halt(10_000).unwrap();
        total_vms += vmm.vm_count();
    }
    assert_eq!(total_vms, 12);

    // The consolidated plan costs less to power than one-per-host.
    let baseline = planner.plan(&fleet, PlacementStrategy::OnePerHost).unwrap();
    let report = CostModel::default().compare(&baseline, &plan);
    assert!(report.annual_saving_euro() > 0.0);
}

#[test]
fn maintenance_evacuation_migrates_every_vm_off_a_host() {
    let mut source = Vmm::new("host-under-maintenance");
    let mut target = Vmm::new("spare-host");
    let mut ids = Vec::new();
    for i in 0..3 {
        let id = source
            .create_vm(VmConfig::new(&format!("prod-{i}")).with_memory(ByteSize::mib(8)))
            .unwrap();
        let vm = source.vm_mut(id).unwrap();
        let w = Workload::new(WorkloadKind::Idle { wakeups: 50_000 }).unwrap();
        vm.load_workload(&w).unwrap();
        vm.memory()
            .write_u64(GuestAddress(0x3000), 0xbeef_0000 + i as u64)
            .unwrap();
        ids.push(id);
    }

    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut reports: Vec<MigrationReport> = Vec::new();
    for id in ids {
        let mut transport = LoopbackTransport::new(&mut link);
        let plan = MigrationPlan::default();
        let (_, report) = source
            .migrate_to(id, &mut target, &mut transport, &plan, &Trace::off())
            .unwrap();
        reports.push(report);
    }

    assert_eq!(source.vm_count(), 0);
    assert_eq!(target.vm_count(), 3);
    for (i, id) in target.vm_ids().into_iter().enumerate() {
        let vm = target.vm(id).unwrap();
        assert_eq!(vm.lifecycle(), VmLifecycle::Running);
        assert_eq!(
            vm.memory().read_u64(GuestAddress(0x3000)).unwrap(),
            0xbeef_0000 + i as u64
        );
    }
    // Live migration kept downtime well below a second per VM on 10 GbE.
    for r in &reports {
        assert!(r.downtime.as_millis_f64() < 1000.0);
        assert!(r.converged);
    }
}

#[test]
fn disaster_recovery_restores_a_vm_from_its_backup_chain() {
    let mut vmm = Vmm::new("primary-site");
    let id = vmm
        .create_vm(VmConfig::new("erp-db").with_memory(ByteSize::mib(16)))
        .unwrap();
    {
        let vm = vmm.vm_mut(id).unwrap();
        let w = Workload::new(WorkloadKind::MemoryDirty {
            pages: 128,
            passes: 1,
        })
        .unwrap();
        vm.load_workload(&w).unwrap();
        vm.memory()
            .write_u64(GuestAddress(0x8000), 0x1CEB00DA)
            .unwrap();
    }
    let snap = vmm.snapshot_vm(id, "nightly").unwrap();
    let checksum_at_backup = vmm.vm(id).unwrap().memory().checksum();

    // "Ransomware" scribbles over guest memory.
    vmm.vm(id)
        .unwrap()
        .memory()
        .fill(GuestAddress(0), ByteSize::mib(1).as_u64(), 0x66)
        .unwrap();
    assert_ne!(vmm.vm(id).unwrap().memory().checksum(), checksum_at_backup);

    // Restore from the snapshot store and verify integrity.
    let store_snapshot = vmm.snapshots().get(snap).unwrap().clone();
    let vm = vmm.vm_mut(id).unwrap();
    store_snapshot.memory.apply(vm.memory()).unwrap();
    assert_eq!(vm.memory().checksum(), checksum_at_backup);
    assert_eq!(
        vm.memory().read_u64(GuestAddress(0x8000)).unwrap(),
        0x1CEB00DA
    );
}

#[test]
fn branch_office_rollout_uses_cow_templates() {
    let mut library = ImageLibrary::new();
    library
        .add_template(
            "branch-gold",
            "branch office server",
            synthetic_os_image(ByteSize::mib(32)),
        )
        .unwrap();
    let mut provisioner = Provisioner::new(library, StorageModel::hdd());

    let (full_reports, full_time) = provisioner
        .provision_many("branch-gold", CloneStrategy::FullCopy, 4)
        .unwrap();
    let (cow_reports, cow_time) = provisioner
        .provision_many("branch-gold", CloneStrategy::CopyOnWrite, 4)
        .unwrap();

    assert_eq!(full_reports.len(), 4);
    assert_eq!(cow_reports.len(), 4);
    assert_eq!(cow_time.as_nanos(), 0);
    assert!(
        full_time.as_millis_f64() > 100.0,
        "full copies over HDD take real time"
    );

    // Each provisioned disk can actually back a VM's virtio-blk device.
    let vm = Vm::new(
        VmConfig::new("branch-1")
            .with_memory(ByteSize::mib(8))
            .with_disk(virtlab::vmm::DiskConfig::new("sys", ByteSize::mib(32))),
    )
    .unwrap();
    assert!(vm.virtio_blk().is_some());
}

#[test]
fn overcommit_with_ballooning_fits_more_vms() {
    // Without ballooning: 12 GiB host, 2 GiB VMs -> 6 fit. With a 1.5x
    // overcommit backed by ballooning, 9 fit; the balloon then actually
    // reclaims the pages from running VMs.
    let fleet: Vec<VmSpec> = (0..9)
        .map(|i| VmSpec::typical(&format!("ts-{i}"), virtlab::cluster::ServerRole::Mail))
        .collect();
    let host = HostSpec::deck_era_server(HostId::new(0));
    let strict = ConsolidationPlanner::new(host.clone(), 1)
        .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
        .unwrap();
    let relaxed = ConsolidationPlanner::new(host, 1)
        .with_memory_overcommit(1.5)
        .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
        .unwrap();
    assert!(strict.vms_placed() < relaxed.vms_placed());

    // Back the overcommit with real balloons on scaled-down VMs.
    let mut vmm = Vmm::new("overcommitted-host");
    for i in 0..relaxed.vms_placed() {
        let id = vmm
            .create_vm(
                VmConfig::new(&format!("vm-{i}"))
                    .with_memory(ByteSize::mib(8))
                    .with_balloon(),
            )
            .unwrap();
        // Reclaim a third of each VM's memory.
        let pages = vmm.vm(id).unwrap().memory().total_pages() / 3;
        vmm.vm(id).unwrap().set_balloon_pages(pages).unwrap();
    }
    let reclaimed: u64 = vmm
        .vm_ids()
        .iter()
        .map(|&id| {
            vmm.vm(id)
                .unwrap()
                .balloon()
                .unwrap()
                .stats()
                .ballooned
                .as_u64()
        })
        .sum();
    assert!(reclaimed > 0);
}

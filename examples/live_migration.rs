//! Live migration: move a running VM between two hosts and compare the
//! downtime of stop-and-copy, pre-copy and post-copy under different guest
//! dirty rates and link speeds.
//!
//! ```text
//! cargo run --example live_migration
//! ```

use virtlab::memory::GuestMemory;
use virtlab::migrate::{
    ConstantRateDirtier, LoopbackTransport, MigrationConfig, MigrationPlan, PostCopy, PreCopy,
    StopAndCopy,
};
use virtlab::net::{Link, LinkModel};
use virtlab::obs::Trace;
use virtlab::vcpu::{VcpuState, Workload, WorkloadKind};
use virtlab::{ByteSize, Vmm};

fn engines_comparison() {
    println!("-- engine comparison (1 GiB guest, 1 Gbit/s link, 30% dirty rate) --\n");
    let ram = ByteSize::mib(1024);
    let link_model = LinkModel::gigabit();
    let config = MigrationConfig::default();

    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>14} {:>10}",
        "engine", "downtime", "total", "rounds", "transferred", "converged"
    );
    for name in ["stop-and-copy", "pre-copy", "post-copy"] {
        let source = GuestMemory::flat(ram).expect("source memory");
        let dest = GuestMemory::flat(ram).expect("dest memory");
        let mut link = Link::new(link_model);
        let vcpus = [VcpuState::default()];
        let report = match name {
            "stop-and-copy" => StopAndCopy::migrate(&source, &dest, &vcpus, &mut link).unwrap(),
            "pre-copy" => {
                let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
                    link_model.bytes_per_second,
                    0.3,
                    0,
                    source.total_pages(),
                );
                PreCopy::migrate(&source, &dest, &vcpus, &mut link, &mut dirtier, &config).unwrap()
            }
            _ => PostCopy::migrate(&source, &dest, &vcpus, &mut link, &config).unwrap(),
        };
        println!(
            "{:<16} {:>12} {:>12} {:>8} {:>11} MiB {:>10}",
            name,
            format!("{}", report.downtime),
            format!("{}", report.total_time),
            report.rounds,
            report.bytes_transferred >> 20,
            report.converged
        );
    }
}

fn manager_level_migration() {
    println!("\n-- manager-level migration of a running VM --\n");
    let mut source_host = Vmm::new("host-a");
    let mut dest_host = Vmm::new("host-b");

    let vm_id = source_host
        .create_vm(virtlab::VmConfig::new("erp-app-3").with_memory(ByteSize::mib(64)))
        .expect("create vm");
    {
        let vm = source_host.vm_mut(vm_id).unwrap();
        let workload = Workload::new(WorkloadKind::Idle { wakeups: 100_000 }).unwrap();
        vm.load_workload(&workload).unwrap();
        vm.memory()
            .write_u64(virtlab::GuestAddress(0x4000), 0xC0FFEE)
            .unwrap();
        // Let it run a little before the migration starts.
        vm.run_for(virtlab::Nanoseconds::from_millis(5)).unwrap();
    }

    let mut link = Link::new(LinkModel::gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let (new_id, report) = source_host
        .migrate_to(
            vm_id,
            &mut dest_host,
            &mut transport,
            &MigrationPlan::default(),
            &Trace::off(),
        )
        .expect("migration");

    let migrated = dest_host.vm(new_id).unwrap();
    println!("VM now lives on {}: {:?}", dest_host.name(), migrated);
    println!(
        "memory intact: 0x{:x} (expected 0xC0FFEE)",
        migrated
            .memory()
            .read_u64(virtlab::GuestAddress(0x4000))
            .unwrap()
    );
    println!("downtime {}, total {}", report.downtime, report.total_time);
    println!(
        "source host now has {} VMs, destination {}",
        source_host.vm_count(),
        dest_host.vm_count()
    );
}

fn dirty_rate_sweep() {
    println!("\n-- pre-copy downtime vs dirty rate (256 MiB guest, 1 Gbit/s link) --\n");
    let ram = ByteSize::mib(256);
    println!(
        "{:>12} {:>14} {:>14} {:>8} {:>10}",
        "dirty rate", "downtime", "total", "rounds", "converged"
    );
    for fraction in [0.0, 0.2, 0.4, 0.6, 0.8, 1.2] {
        let source = GuestMemory::flat(ram).unwrap();
        let dest = GuestMemory::flat(ram).unwrap();
        let mut link = Link::new(LinkModel::gigabit());
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            fraction,
            0,
            source.total_pages(),
        );
        let report = PreCopy::migrate(
            &source,
            &dest,
            &[VcpuState::default()],
            &mut link,
            &mut dirtier,
            &MigrationConfig::default(),
        )
        .unwrap();
        println!(
            "{:>11.0}% {:>14} {:>14} {:>8} {:>10}",
            fraction * 100.0,
            format!("{}", report.downtime),
            format!("{}", report.total_time),
            report.rounds,
            report.converged
        );
    }
}

fn main() {
    println!("== live migration ==\n");
    engines_comparison();
    manager_level_migration();
    dirty_rate_sweep();
}

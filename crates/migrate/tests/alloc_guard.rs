//! Allocation guard for the zero-copy migration data plane.
//!
//! A dedicated integration-test binary with a counting `#[global_allocator]`
//! pinning the property the zero-copy refactor bought: a steady-state
//! pre-copy round (harvest the dirty set into a reused buffer, stream the
//! pages through the in-place views) performs **zero per-page heap
//! allocations**. If someone reintroduces a `Vec` per page or per harvest,
//! this test fails — the property cannot silently regress.
//!
//! The binary contains a single `#[test]` so no concurrent test can perturb
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::num::NonZeroUsize;

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    migrate, ConstantRateDirtier, LoopbackTransport, MigrationConfig, MigrationPlan, PreCopy,
};
use rvisor_net::{Link, LinkModel};
use rvisor_obs::Trace;
use rvisor_types::{ByteSize, GuestAddress, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

/// Counts every allocation (and reallocation) passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_precopy_round_is_allocation_free() {
    const PAGES: u64 = 4096;
    const DIRTY_PER_ROUND: u64 = 1024;

    let source = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    let dest = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    for p in 0..PAGES {
        source
            .write_u64(GuestAddress(p * PAGE_SIZE), p.wrapping_mul(31) + 1)
            .unwrap();
    }

    // ---- Part 1: the data-plane round itself, measured exactly. ----
    //
    // Warm up: one full harvest+copy cycle (the pattern writes above left
    // every page dirty, so this is the round-1 full copy) grows the harvest
    // buffer to the working set. From then on a round is: dirty pages
    // appear, the harvest drains them into the reused buffer, each page
    // streams source→dest through the in-place views. None of that may
    // allocate.
    let mut harvest: Vec<u64> = Vec::new();
    source.drain_dirty_into(&mut harvest);
    assert_eq!(harvest.len() as u64, PAGES);
    for &p in &harvest {
        source
            .with_page(p, |bytes| {
                dest.with_page_mut(p, |target| target.copy_from_slice(bytes))
            })
            .unwrap()
            .unwrap();
    }

    // Steady-state round, with the allocator counter bracketing it.
    for p in 0..DIRTY_PER_ROUND {
        source
            .write_u64(GuestAddress(p * PAGE_SIZE), p ^ 0x55)
            .unwrap();
    }
    let before = allocations();
    source.drain_dirty_into(&mut harvest);
    assert_eq!(harvest.len() as u64, DIRTY_PER_ROUND);
    for &p in &harvest {
        source
            .with_page(p, |bytes| {
                dest.with_page_mut(p, |target| target.copy_from_slice(bytes))
            })
            .unwrap()
            .unwrap();
    }
    let round_allocations = allocations() - before;
    assert_eq!(
        round_allocations, 0,
        "a steady-state harvest+copy round over {DIRTY_PER_ROUND} pages \
         must not touch the heap, but performed {round_allocations} allocations"
    );
    assert_eq!(source.checksum(), dest.checksum());

    // ---- Part 2: the full engine, bounded end to end. ----
    //
    // A complete pre-copy migration (several rounds over PAGES pages with a
    // guest dirtying at half link bandwidth) is allowed its setup costs —
    // the initial page list, the link, the report — but nothing per page:
    // total allocations must stay orders of magnitude below the page count.
    let (src2, dst2) = (
        GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap(),
        GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap(),
    );
    for p in 0..PAGES {
        src2.write_u64(GuestAddress(p * PAGE_SIZE), p * 7 + 3)
            .unwrap();
    }
    let mut link = Link::new(LinkModel::gigabit());
    let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
        LinkModel::gigabit().bytes_per_second,
        0.5,
        0,
        PAGES,
    );
    let config = MigrationConfig {
        max_rounds: 8,
        dirty_page_threshold: 32,
        ..Default::default()
    };
    let before = allocations();
    let report = PreCopy::migrate(
        &src2,
        &dst2,
        &[VcpuState::default()],
        &mut link,
        &mut dirtier,
        &config,
    )
    .unwrap();
    let migration_allocations = allocations() - before;

    assert_eq!(src2.checksum(), dst2.checksum());
    assert!(
        report.pages_transferred >= PAGES,
        "expected at least one full pass, got {}",
        report.pages_transferred
    );
    // Generous fixed budget: page-list growth amortizes to O(log n) reallocs,
    // everything else is per-round or per-migration. 4096+ transferred pages
    // at zero allocations each must fit far under it.
    const BUDGET: u64 = 64;
    assert!(
        migration_allocations <= BUDGET,
        "a full pre-copy migration of {} pages performed {} allocations \
         (budget {BUDGET}); the per-page paths have regressed",
        report.pages_transferred,
        migration_allocations
    );

    // ---- Part 3: the pipelined multi-stream engine, bounded end to end. ----
    //
    // A pipelined migration is allowed its setup: thread spawns, channel
    // construction, and warm-up growth of the per-stripe burst buffers and
    // page lists (the cycling dirtier shifts load between stripes, so the
    // buffer pool takes a few rounds to reach its high-water capacities).
    // From then on the bounded channel of recycled buffers must actually
    // recycle: comparing a 12-round against a 28-round migration of the
    // same non-converging guest, the marginal cost of the 16 extra
    // steady-state rounds (each harvesting and streaming ~thousands of
    // pages through 4 stripes and the sink thread) must stay within a tiny
    // fixed budget — nothing per page, nothing per round beyond channel
    // noise.
    let pipelined = |max_rounds: u32| -> u64 {
        let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
        for p in 0..PAGES {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 13 + 5)
                .unwrap();
        }
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        // Dirtying at 90% of link bandwidth: the dirty set shrinks too
        // slowly to converge, so the round count is exactly `max_rounds`.
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            0.9,
            0,
            PAGES,
        );
        let plan = MigrationPlan {
            max_rounds,
            dirty_page_threshold: 32,
            streams: NonZeroUsize::new(4).unwrap(),
            ..Default::default()
        };
        let before = allocations();
        let report = migrate(
            &src,
            &dst,
            &[VcpuState::default()],
            &mut transport,
            &mut dirtier,
            &plan,
            &Trace::off(),
        )
        .unwrap();
        let spent = allocations() - before;
        assert_eq!(report.rounds, max_rounds, "guest must not converge");
        assert_eq!(src.checksum(), dst.checksum());
        spent
    };
    let allocs_short = pipelined(12);
    let allocs_long = pipelined(28);
    let extra = allocs_long.saturating_sub(allocs_short);
    const PER_ROUND_BUDGET: u64 = 4;
    assert!(
        extra <= 16 * PER_ROUND_BUDGET,
        "16 extra steady-state pipelined rounds cost {extra} allocations \
         (budget {}); the channel/buffer recycling has regressed",
        16 * PER_ROUND_BUDGET
    );
    // The whole pipelined migration — threads, channels, pools, dozens of
    // rounds over thousands of pages — stays within a fixed setup budget.
    const PIPELINE_BUDGET: u64 = 1024;
    assert!(
        allocs_long <= PIPELINE_BUDGET,
        "a 28-round pipelined migration performed {allocs_long} allocations \
         (budget {PIPELINE_BUDGET})"
    );

    // ---- Part 4: tracing off costs nothing on the hot path. ----
    //
    // The observability plane promises that a disabled `Trace` is free: the
    // phase skeletons bail out on `is_on()` before formatting a single
    // argument. Pin the allocation half of that promise through the
    // plan-driven entry point on its serial plane with `Trace::off()`: compare a
    // 12-round against a 28-round migration of the same non-converging
    // guest. The 16 extra steady-state rounds — each of which would emit a
    // round span if tracing were on — must perform **exactly zero** heap
    // allocations. Setup costs (the round-breakdown vector is sized by
    // `max_rounds`, buffers grow to their high-water marks in early rounds)
    // are identical in both runs and cancel out.
    let traced_off = |max_rounds: u32| -> u64 {
        let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
        for p in 0..PAGES {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 17 + 9)
                .unwrap();
        }
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            0.9,
            0,
            PAGES,
        );
        let plan = MigrationPlan {
            max_rounds,
            dirty_page_threshold: 32,
            ..Default::default()
        };
        let trace = Trace::off();
        let before = allocations();
        let report = migrate(
            &src,
            &dst,
            &[VcpuState::default()],
            &mut transport,
            &mut dirtier,
            &plan,
            &trace,
        )
        .unwrap();
        let spent = allocations() - before;
        assert_eq!(report.rounds, max_rounds, "guest must not converge");
        assert_eq!(src.checksum(), dst.checksum());
        spent
    };
    let off_short = traced_off(12);
    let off_long = traced_off(28);
    // `with_capacity(max_rounds + 1)` makes the breakdown allocation the
    // same *count* in both runs; everything else is recycled. Any nonzero
    // difference means the disabled-trace path touched the heap per round.
    let off_extra = off_long.saturating_sub(off_short);
    assert_eq!(
        off_extra, 0,
        "16 extra steady-state rounds through the plan-driven entry point with \
         tracing off cost {off_extra} allocations; a disabled Trace must be \
         free on the hot path"
    );
}

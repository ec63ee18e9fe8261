//! The direct migration engines and the knobs every engine shares.
//!
//! The three direct engines move the contents of a *source* [`GuestMemory`]
//! into a *destination* [`GuestMemory`] memory to memory, accounting the
//! bytes the wire format would carry across a [`Link`] and the simulated
//! time they take, and letting a [`DirtySource`] keep writing into the
//! source while pre-copy rounds are in flight (that is what makes the
//! convergence behaviour real rather than assumed).
//!
//! They are the reference the streamed protocol is tested against: over a
//! loopback transport, [`migrate`](crate::migrate) produces `==` reports and
//! byte-identical memory (proptest-pinned in [`stream`](crate::stream)).

use std::num::NonZeroUsize;

use rvisor_memory::GuestMemory;
use rvisor_net::Link;
use rvisor_types::{Error, Nanoseconds, Result, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

use crate::compress::{PageCompression, PageCompressor};
use crate::dirty::DirtySource;
use crate::report::{MigrationKind, MigrationReport, RoundStat};
use crate::wire;

/// Bytes of metadata transferred per page: exactly one wire-format frame
/// header ([`wire::FRAME_HEADER_BYTES`]), so the direct engines charge the
/// same bytes the streaming path actually encodes.
pub(crate) const PER_PAGE_OVERHEAD: u64 = wire::FRAME_HEADER_BYTES;
/// Modelled on-wire size of one vCPU's non-memory state (registers, device
/// state), framing included — one [`wire::FrameKind::VcpuState`] frame.
pub(crate) const VCPU_STATE_BYTES: u64 = wire::VCPU_STATE_WIRE_BYTES;

/// Shared configuration for the engines.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Pre-copy: maximum number of iterative rounds before forcing the stop phase.
    pub max_rounds: u32,
    /// Pre-copy: stop iterating once the dirty set is at most this many pages.
    pub dirty_page_threshold: u64,
    /// Post-copy: fraction of pages that are demand-faulted (the rest arrive
    /// via the background sweep before the guest touches them).
    pub postcopy_fault_fraction: f64,
    /// Pre-copy: how page contents are compressed before crossing the link
    /// (zero-page detection and/or XBZRLE delta encoding).
    pub compression: PageCompression,
    /// Pre-copy with XBZRLE: how many previously-sent pages the delta cache
    /// remembers. Pages evicted from the cache are retransmitted raw, so a
    /// cache smaller than the guest's write working set erases most of the
    /// technique's benefit (the ablation knob of E4e).
    pub xbzrle_cache_pages: usize,
    /// How many parallel migration streams the pipelined data plane
    /// ([`crate::pipeline`]) shards the page-index space into (at most
    /// [`MAX_MIGRATION_STREAMS`]). Stripe `s` owns a fixed contiguous range
    /// of page indices, so a page always travels on the same stream and
    /// sink-side applies can never race. The direct engines ignore the
    /// knob; [`migrate`](crate::migrate) routes plans with `streams > 1`
    /// through the pipelined plane.
    pub streams: NonZeroUsize,
}

/// Upper bound on [`MigrationConfig::streams`]: beyond this, per-stream
/// framing overhead and thread fan-out cost more than they could ever buy.
pub const MAX_MIGRATION_STREAMS: usize = 64;

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            max_rounds: 30,
            dirty_page_threshold: 64,
            postcopy_fault_fraction: 0.1,
            compression: PageCompression::None,
            // 256 MiB of cached page versions, mirroring QEMU's default-ish
            // cache sizing scaled to the simulated guests.
            xbzrle_cache_pages: 65_536,
            streams: NonZeroUsize::MIN,
        }
    }
}

impl MigrationConfig {
    /// Validate the configuration. The engines call this on entry, so a
    /// nonsensical knob fails fast instead of silently shaping a run:
    ///
    /// * `postcopy_fault_fraction` must lie in `[0, 1]` (NaN is rejected) —
    ///   it is a fraction of the guest's pages;
    /// * `max_rounds` must be at least 1 (pre-copy needs its full first
    ///   round);
    /// * `xbzrle_cache_pages` must be non-zero when XBZRLE is selected;
    /// * `streams` must not exceed [`MAX_MIGRATION_STREAMS`].
    ///
    /// Network-side knobs (bandwidth, MTU) live in
    /// [`rvisor_net::FabricParams`] / [`rvisor_net::LinkModel`] and are
    /// validated by `FabricParams::validate` when the fabric is built.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.postcopy_fault_fraction) {
            return Err(Error::Migration(format!(
                "postcopy_fault_fraction must be within [0, 1], got {}",
                self.postcopy_fault_fraction
            )));
        }
        if self.max_rounds == 0 {
            return Err(Error::Migration(
                "max_rounds must be at least 1 (pre-copy needs its first round)".into(),
            ));
        }
        if self.compression == PageCompression::Xbzrle && self.xbzrle_cache_pages == 0 {
            return Err(Error::Migration(
                "xbzrle_cache_pages must be non-zero when XBZRLE is enabled".into(),
            ));
        }
        if self.streams.get() > MAX_MIGRATION_STREAMS {
            return Err(Error::Migration(format!(
                "streams must be at most {MAX_MIGRATION_STREAMS}, got {}",
                self.streams
            )));
        }
        Ok(())
    }
}

pub(crate) fn check_same_size(source: &GuestMemory, dest: &GuestMemory) -> Result<()> {
    if source.total_size() != dest.total_size() {
        return Err(Error::Migration(format!(
            "source has {} of RAM but destination has {}",
            source.total_size(),
            dest.total_size()
        )));
    }
    // The in-place receive path takes a destination write lock while the
    // wire page may alias the source's bytes; aliased source/destination
    // handles would make the transfer read its own partially-overwritten
    // output (and migrating a VM onto its own memory is meaningless), so
    // reject sharing up front.
    for (s, d) in source.regions().iter().zip(dest.regions().iter()) {
        if std::sync::Arc::ptr_eq(s, d) {
            return Err(Error::Migration(
                "source and destination share backing memory".into(),
            ));
        }
    }
    Ok(())
}

fn copy_pages(
    source: &GuestMemory,
    dest: &GuestMemory,
    pages: &[u64],
    link: &mut Link,
    now: Nanoseconds,
) -> Result<(Nanoseconds, u64)> {
    copy_pages_with(source, dest, pages, link, now, None)
}

/// Copy pages, optionally running them through a [`PageCompressor`].
///
/// Zero-copy on both sides: each source page is borrowed in place
/// ([`GuestMemory::with_page`]) and handed to the compressor as `&[u8]`, and
/// the destination reconstructs it *into its own page* (raw overwrite,
/// in-place zeroing, or in-place XBZRLE patching via
/// [`PageCompressor::apply_in_place`]), exactly as the real protocol would;
/// only the reconstructed bytes land, so memory equality at the end of a
/// migration proves the codec round-trips. The uncompressed path performs no
/// heap allocation per page (the guarantee pinned by the
/// `alloc_guard` integration test).
fn copy_pages_with(
    source: &GuestMemory,
    dest: &GuestMemory,
    pages: &[u64],
    link: &mut Link,
    now: Nanoseconds,
    mut compressor: Option<&mut PageCompressor>,
) -> Result<(Nanoseconds, u64)> {
    // Stack bounce buffer for the uncompressed path (initialized once per
    // call, overwritten in full per page): the source read lock is released
    // before the destination write lock is taken, so two concurrent
    // opposite-direction migrations over the same pair of memories can
    // never deadlock on lock order. Still zero heap allocations per page.
    let mut bounce = [0u8; PAGE_SIZE as usize];
    let mut bytes = 0u64;
    for &p in pages {
        match compressor.as_deref_mut() {
            Some(c) => {
                // Sequential, never nested: compress under the source read
                // lock, then apply under the destination write lock.
                let wire = source.with_page(p, |contents| c.compress(p, contents))?;
                dest.with_page_mut(p, |current| PageCompressor::apply_in_place(current, &wire))??;
                bytes += wire.wire_len() + PER_PAGE_OVERHEAD;
            }
            None => {
                source.with_page(p, |contents| bounce.copy_from_slice(contents))?;
                dest.with_page_mut(p, |target| target.copy_from_slice(&bounce))?;
                bytes += PAGE_SIZE + PER_PAGE_OVERHEAD;
            }
        }
    }
    // Every round's burst is terminated by an end-of-round marker frame on
    // the wire; the direct path charges it so both paths account alike.
    bytes += wire::END_OF_ROUND_WIRE_BYTES;
    let done = link.transmit(now, bytes);
    Ok((done, bytes))
}

/// Pause, copy all memory and state, resume on the destination.
#[derive(Debug, Default)]
pub struct StopAndCopy;

impl StopAndCopy {
    /// Run the migration. The guest is paused for the entire duration, so
    /// downtime equals total time.
    pub fn migrate(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        link: &mut Link,
    ) -> Result<MigrationReport> {
        check_same_size(source, dest)?;
        let start = link.free_at();
        // Stream opener: version/geometry handshake (the guest is already
        // paused for a cold migration, so it counts toward downtime).
        let after_hello = link.transmit(start, wire::HELLO_WIRE_BYTES);
        let all_pages: Vec<u64> = (0..source.total_pages()).collect();
        let (after_pages, bytes) = copy_pages(source, dest, &all_pages, link, after_hello)?;
        let state_bytes = VCPU_STATE_BYTES * vcpus.len().max(1) as u64;
        let done = link.transmit(after_pages, state_bytes);
        let elapsed = done.saturating_sub(start);
        let round = RoundStat {
            pages: all_pages.len() as u64,
            bytes,
            duration: after_pages.saturating_sub(after_hello),
        };
        Ok(MigrationReport {
            kind: MigrationKind::StopAndCopy,
            downtime: elapsed,
            total_time: elapsed,
            rounds: 1,
            bytes_transferred: wire::HELLO_WIRE_BYTES + bytes + state_bytes,
            pages_transferred: all_pages.len() as u64,
            memory_size: source.total_size(),
            converged: true,
            remote_faults: 0,
            avg_fault_latency: Nanoseconds::ZERO,
            rounds_breakdown: vec![round],
        })
    }
}

/// Iterative pre-copy.
#[derive(Debug, Default)]
pub struct PreCopy;

impl PreCopy {
    /// Run the migration while `dirty_source` keeps writing into the source.
    pub fn migrate(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        link: &mut Link,
        dirty_source: &mut dyn DirtySource,
        config: &MigrationConfig,
    ) -> Result<MigrationReport> {
        config.validate()?;
        check_same_size(source, dest)?;
        let start = link.free_at();
        // Stream opener (version/geometry handshake) while the guest runs.
        let mut now = link.transmit(start, wire::HELLO_WIRE_BYTES);
        let mut total_bytes = wire::HELLO_WIRE_BYTES;
        let mut total_pages = 0u64;
        let mut rounds = 0u32;
        let mut converged = false;
        let mut compressor = match config.compression {
            PageCompression::None => None,
            mode => Some(PageCompressor::with_cache_capacity(
                mode,
                config.xbzrle_cache_pages,
            )),
        };

        // Round 1: everything. Clear the dirty bitmap first so only writes
        // that happen *during* the transfer count for the next round.
        source.clear_dirty();
        let mut to_send: Vec<u64> = (0..source.total_pages()).collect();
        // One harvest buffer is swapped with `to_send` each round; once both
        // have grown to the working set, steady-state rounds allocate nothing.
        let mut harvest: Vec<u64> = Vec::new();
        // Sized for the worst case (max_rounds iterations + the stop phase)
        // up front, so pushes inside the loop never reallocate and the
        // steady-state round stays allocation-free (alloc-guard-pinned).
        let mut breakdown: Vec<RoundStat> = Vec::with_capacity(config.max_rounds as usize + 1);

        loop {
            rounds += 1;
            let round_start = now;
            let (done, bytes) =
                copy_pages_with(source, dest, &to_send, link, now, compressor.as_mut())?;
            total_bytes += bytes;
            total_pages += to_send.len() as u64;
            let round_duration = done.saturating_sub(round_start);
            let stat = RoundStat {
                pages: to_send.len() as u64,
                bytes,
                duration: round_duration,
            };
            breakdown.push(stat);
            // The guest ran (and dirtied memory) for the whole round.
            dirty_source.run_for(source, round_duration)?;
            now = done;

            source.drain_dirty_into(&mut harvest);
            std::mem::swap(&mut to_send, &mut harvest);
            if to_send.len() as u64 <= config.dirty_page_threshold {
                converged = true;
                break;
            }
            if rounds >= config.max_rounds {
                break;
            }
        }

        // Stop phase: the guest is paused; transfer the residual dirty set and state.
        let pause_start = now;
        let (after_residual, residual_bytes) =
            copy_pages_with(source, dest, &to_send, link, now, compressor.as_mut())?;
        total_bytes += residual_bytes;
        total_pages += to_send.len() as u64;
        let stop_stat = RoundStat {
            pages: to_send.len() as u64,
            bytes: residual_bytes,
            duration: after_residual.saturating_sub(pause_start),
        };
        breakdown.push(stop_stat);
        let state_bytes = VCPU_STATE_BYTES * vcpus.len().max(1) as u64;
        let done = link.transmit(after_residual, state_bytes);
        total_bytes += state_bytes;

        Ok(MigrationReport {
            kind: MigrationKind::PreCopy,
            downtime: done.saturating_sub(pause_start),
            total_time: done.saturating_sub(start),
            rounds,
            bytes_transferred: total_bytes,
            pages_transferred: total_pages,
            memory_size: source.total_size(),
            converged,
            remote_faults: 0,
            avg_fault_latency: Nanoseconds::ZERO,
            rounds_breakdown: breakdown,
        })
    }
}

/// Post-copy with demand paging.
#[derive(Debug, Default)]
pub struct PostCopy;

impl PostCopy {
    /// Run the migration. The guest pauses only while vCPU state moves; all
    /// memory is pulled afterwards — a configurable fraction synchronously
    /// (demand faults, each paying a round trip) and the rest by the
    /// background sweep.
    pub fn migrate(
        source: &GuestMemory,
        dest: &GuestMemory,
        vcpus: &[VcpuState],
        link: &mut Link,
        config: &MigrationConfig,
    ) -> Result<MigrationReport> {
        config.validate()?;
        check_same_size(source, dest)?;
        let start = link.free_at();
        // Stream opener crosses before the pause (connection setup).
        let after_hello = link.transmit(start, wire::HELLO_WIRE_BYTES);
        // Downtime: only the vCPU/device state.
        let state_bytes = VCPU_STATE_BYTES * vcpus.len().max(1) as u64;
        let resumed_at = link.transmit(after_hello, state_bytes);
        let downtime = resumed_at.saturating_sub(after_hello);

        // All memory still has to cross the link; demand faults additionally pay
        // a propagation round trip each because the guest is blocked on them.
        let total_pages = source.total_pages();
        let fault_pages = ((total_pages as f64) * config.postcopy_fault_fraction).round() as u64;
        let fault_pages = fault_pages.min(total_pages);

        let all_pages: Vec<u64> = (0..total_pages).collect();
        let (after_pages, bytes) = copy_pages(source, dest, &all_pages, link, resumed_at)?;

        let per_fault_latency = link.model().transfer_time(PAGE_SIZE + PER_PAGE_OVERHEAD);
        // Demand faults serialize with the background stream; model their extra
        // cost as one additional propagation delay each (the request direction).
        let fault_penalty = Nanoseconds(link.model().latency.as_nanos() * fault_pages);
        let done = after_pages.saturating_add(fault_penalty);

        let round = RoundStat {
            pages: total_pages,
            bytes,
            duration: after_pages.saturating_sub(resumed_at),
        };
        Ok(MigrationReport {
            kind: MigrationKind::PostCopy,
            downtime,
            total_time: done.saturating_sub(start),
            rounds: 1,
            bytes_transferred: wire::HELLO_WIRE_BYTES + bytes + state_bytes,
            pages_transferred: total_pages,
            memory_size: source.total_size(),
            converged: true,
            remote_faults: fault_pages,
            avg_fault_latency: per_fault_latency.saturating_add(link.model().latency),
            rounds_breakdown: vec![round],
        })
    }
}

/// Mean demand-fault *service* latency under the sweep-ordered reference
/// discipline, for `faults` demand faults each costing `per_fault` transfer
/// time over a path with one-way propagation delay `latency`.
///
/// The sweep-ordered engines ([`PostCopy::migrate`] and
/// [`FaultService::Sweep`](crate::FaultService::Sweep) plans through
/// [`migrate`](crate::migrate)) charge their demand faults as one serialized
/// propagation delay each, appended after the background sweep
/// (`fault_penalty = latency × faults`); their reports' `avg_fault_latency`
/// records only the *per-fault transfer cost* (`per_fault + latency`) and
/// deliberately excludes that queueing. Under the serialized discipline the
/// k-th fault waits behind k propagation delays, so the mean service
/// latency over `faults ≥ 1` faults is
///
/// ```text
/// per_fault + latency × (faults + 1) / 2
/// ```
///
/// which is what this helper returns (`ZERO` for zero faults). A
/// fault-lane run ([`FaultService::FaultLane`](crate::FaultService::FaultLane))
/// services every fault from a dedicated stream with no queueing, so its
/// reported `avg_fault_latency` (`per_fault + latency`) *is* its mean
/// service latency — strictly below the sweep's whenever two or more pages
/// fault.
pub fn sweep_mean_fault_latency(
    per_fault: Nanoseconds,
    latency: Nanoseconds,
    faults: u64,
) -> Nanoseconds {
    if faults == 0 {
        return Nanoseconds::ZERO;
    }
    let queueing = latency
        .as_nanos()
        .saturating_mul(faults + 1)
        .saturating_div(2);
    per_fault.saturating_add(Nanoseconds(queueing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::{ConstantRateDirtier, IdleDirtier};
    use rvisor_net::LinkModel;
    use rvisor_types::{ByteSize, GuestAddress};

    fn memories(pages: u64) -> (GuestMemory, GuestMemory) {
        let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        // Put a recognisable pattern into the source.
        for p in 0..pages {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 7 + 1)
                .unwrap();
        }
        (src, dst)
    }

    fn link() -> Link {
        Link::new(LinkModel::gigabit())
    }

    #[test]
    fn stop_and_copy_moves_everything_with_downtime_equal_total() {
        let (src, dst) = memories(256);
        let mut l = link();
        let report = StopAndCopy::migrate(&src, &dst, &[VcpuState::default()], &mut l).unwrap();
        assert_eq!(report.kind, MigrationKind::StopAndCopy);
        assert_eq!(report.downtime, report.total_time);
        assert_eq!(report.pages_transferred, 256);
        assert_eq!(src.checksum(), dst.checksum());
        assert!(report.transfer_amplification() >= 1.0);
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let src = GuestMemory::flat(ByteSize::pages_of(8)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(16)).unwrap();
        let mut l = link();
        assert!(StopAndCopy::migrate(&src, &dst, &[], &mut l).is_err());
        assert!(PostCopy::migrate(&src, &dst, &[], &mut l, &MigrationConfig::default()).is_err());
        assert!(PreCopy::migrate(
            &src,
            &dst,
            &[],
            &mut l,
            &mut IdleDirtier,
            &MigrationConfig::default()
        )
        .is_err());
    }

    #[test]
    fn precopy_with_idle_guest_has_tiny_downtime() {
        let (src, dst) = memories(1024);
        let mut l = link();
        let report = PreCopy::migrate(
            &src,
            &dst,
            &[VcpuState::default()],
            &mut l,
            &mut IdleDirtier,
            &MigrationConfig::default(),
        )
        .unwrap();
        assert!(report.converged);
        assert_eq!(report.rounds, 1);
        assert_eq!(src.checksum(), dst.checksum());
        // Downtime is just the residual (empty) set + vCPU state: far below total.
        assert!(report.downtime.as_nanos() < report.total_time.as_nanos() / 10);
    }

    #[test]
    fn precopy_downtime_grows_with_dirty_rate() {
        let config = MigrationConfig::default();
        let mut downtimes = Vec::new();
        for fraction in [0.1, 0.5, 0.9] {
            let (src, dst) = memories(2048);
            let mut l = link();
            let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
                l.model().bytes_per_second,
                fraction,
                0,
                2048,
            );
            let report = PreCopy::migrate(
                &src,
                &dst,
                &[VcpuState::default()],
                &mut l,
                &mut dirtier,
                &config,
            )
            .unwrap();
            assert_eq!(
                src.checksum(),
                dst.checksum(),
                "memory must match at fraction {fraction}"
            );
            downtimes.push(report.downtime);
        }
        assert!(downtimes[0] < downtimes[1]);
        assert!(downtimes[1] < downtimes[2]);
    }

    #[test]
    fn precopy_gives_up_when_dirty_rate_exceeds_bandwidth() {
        let (src, dst) = memories(512);
        let mut l = Link::new(LinkModel {
            bytes_per_second: 10_000_000,
            latency: Nanoseconds::from_micros(100),
        });
        // Dirty at 3x the link bandwidth over a large working set: cannot converge.
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(10_000_000, 3.0, 0, 512);
        let config = MigrationConfig {
            max_rounds: 5,
            dirty_page_threshold: 4,
            ..Default::default()
        };
        let report = PreCopy::migrate(
            &src,
            &dst,
            &[VcpuState::default()],
            &mut l,
            &mut dirtier,
            &config,
        )
        .unwrap();
        assert!(!report.converged);
        assert_eq!(report.rounds, 5);
        // It still finishes (forced stop-and-copy) and memory still matches.
        assert_eq!(src.checksum(), dst.checksum());
        assert!(report.transfer_amplification() > 1.5);
    }

    #[test]
    fn postcopy_downtime_is_independent_of_ram_size() {
        let mut downtimes = Vec::new();
        for pages in [256u64, 2048, 8192] {
            let (src, dst) = memories(pages);
            let mut l = link();
            let report = PostCopy::migrate(
                &src,
                &dst,
                &[VcpuState::default()],
                &mut l,
                &MigrationConfig::default(),
            )
            .unwrap();
            assert_eq!(src.checksum(), dst.checksum());
            assert!(report.remote_faults > 0);
            assert!(report.avg_fault_latency > Nanoseconds::ZERO);
            downtimes.push(report.downtime);
        }
        assert_eq!(downtimes[0], downtimes[1]);
        assert_eq!(downtimes[1], downtimes[2]);
    }

    #[test]
    fn postcopy_downtime_below_stop_and_copy() {
        let (src, dst) = memories(4096);
        let mut l1 = link();
        let sc = StopAndCopy::migrate(&src, &dst, &[VcpuState::default()], &mut l1).unwrap();
        let (src2, dst2) = memories(4096);
        let mut l2 = link();
        let pc = PostCopy::migrate(
            &src2,
            &dst2,
            &[VcpuState::default()],
            &mut l2,
            &MigrationConfig::default(),
        )
        .unwrap();
        assert!(pc.downtime.as_nanos() * 100 < sc.downtime.as_nanos());
    }

    #[test]
    fn precopy_zero_page_compression_shrinks_a_sparse_guest() {
        // Only 1 in 16 pages has content; the rest are zero.
        let pages = 2048u64;
        let make = || {
            let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
            let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
            for p in (0..pages).step_by(16) {
                src.write_u64(GuestAddress(p * PAGE_SIZE), p + 1).unwrap();
            }
            (src, dst)
        };

        let (src, dst) = make();
        let mut l = link();
        let raw = PreCopy::migrate(
            &src,
            &dst,
            &[VcpuState::default()],
            &mut l,
            &mut IdleDirtier,
            &MigrationConfig::default(),
        )
        .unwrap();
        assert_eq!(src.checksum(), dst.checksum());

        let (src, dst) = make();
        let mut l = link();
        let config = MigrationConfig {
            compression: PageCompression::ZeroPages,
            ..Default::default()
        };
        let compressed = PreCopy::migrate(
            &src,
            &dst,
            &[VcpuState::default()],
            &mut l,
            &mut IdleDirtier,
            &config,
        )
        .unwrap();
        assert_eq!(
            src.checksum(),
            dst.checksum(),
            "compression must not corrupt memory"
        );
        // 15/16 of the pages collapse to one-byte markers.
        assert!(compressed.bytes_transferred * 8 < raw.bytes_transferred);
        assert!(compressed.total_time < raw.total_time);
    }

    #[test]
    fn precopy_xbzrle_reduces_retransmission_under_dirtying() {
        let run = |compression: PageCompression| {
            let (src, dst) = memories(2048);
            let mut l = link();
            let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
                l.model().bytes_per_second,
                0.5,
                0,
                2048,
            );
            let config = MigrationConfig {
                compression,
                ..Default::default()
            };
            let report = PreCopy::migrate(
                &src,
                &dst,
                &[VcpuState::default()],
                &mut l,
                &mut dirtier,
                &config,
            )
            .unwrap();
            assert_eq!(
                src.checksum(),
                dst.checksum(),
                "memory mismatch with {compression:?}"
            );
            report
        };

        let raw = run(PageCompression::None);
        let xbzrle = run(PageCompression::Xbzrle);
        // The dirtier rewrites one u64 per page, so every retransmitted page
        // collapses to a tiny delta: far fewer bytes and faster completion.
        assert!(xbzrle.bytes_transferred < raw.bytes_transferred / 2);
        assert!(xbzrle.total_time < raw.total_time);
        assert!(xbzrle.downtime <= raw.downtime);
    }

    /// The seed (pre-refactor) data plane, kept as a reference: a fresh
    /// `Vec<u8>` per page touched, a fresh `Vec<u64>` per harvest. The
    /// zero-copy engine must be observably equivalent to it. (The only
    /// post-seed edits are the wire-framing constants — hello opener and
    /// end-of-round markers — which PR 4 added identically to both paths;
    /// the allocation structure under comparison is untouched.)
    mod seed_reference {
        use super::*;

        fn copy_pages_with_seed(
            source: &GuestMemory,
            dest: &GuestMemory,
            pages: &[u64],
            link: &mut Link,
            now: Nanoseconds,
            mut compressor: Option<&mut PageCompressor>,
        ) -> Result<(Nanoseconds, u64)> {
            let mut bytes = 0u64;
            for &p in pages {
                let contents = source.read_page(p)?;
                match compressor.as_deref_mut() {
                    Some(c) => {
                        let wire = c.compress(p, &contents);
                        let current = dest.read_page(p)?;
                        let rebuilt = PageCompressor::apply(&current, &wire)?;
                        dest.write_page(p, &rebuilt)?;
                        bytes += wire.wire_len() + PER_PAGE_OVERHEAD;
                    }
                    None => {
                        dest.write_page(p, &contents)?;
                        bytes += PAGE_SIZE + PER_PAGE_OVERHEAD;
                    }
                }
            }
            bytes += wire::END_OF_ROUND_WIRE_BYTES;
            let done = link.transmit(now, bytes);
            Ok((done, bytes))
        }

        /// The seed `PreCopy::migrate` loop, verbatim.
        pub fn precopy_migrate_seed(
            source: &GuestMemory,
            dest: &GuestMemory,
            vcpus: &[VcpuState],
            link: &mut Link,
            dirty_source: &mut dyn DirtySource,
            config: &MigrationConfig,
        ) -> Result<MigrationReport> {
            let start = link.free_at();
            let mut now = link.transmit(start, wire::HELLO_WIRE_BYTES);
            let mut total_bytes = wire::HELLO_WIRE_BYTES;
            let mut total_pages = 0u64;
            let mut rounds = 0u32;
            let mut converged = false;
            let mut compressor = match config.compression {
                PageCompression::None => None,
                mode => Some(PageCompressor::with_cache_capacity(
                    mode,
                    config.xbzrle_cache_pages,
                )),
            };

            source.clear_dirty();
            let all_pages: Vec<u64> = (0..source.total_pages()).collect();
            let mut to_send = all_pages;
            let mut breakdown: Vec<RoundStat> = Vec::new();

            loop {
                rounds += 1;
                let round_start = now;
                let (done, bytes) =
                    copy_pages_with_seed(source, dest, &to_send, link, now, compressor.as_mut())?;
                total_bytes += bytes;
                total_pages += to_send.len() as u64;
                let round_duration = done.saturating_sub(round_start);
                breakdown.push(RoundStat {
                    pages: to_send.len() as u64,
                    bytes,
                    duration: round_duration,
                });
                dirty_source.run_for(source, round_duration)?;
                now = done;

                let dirty = source.drain_dirty();
                if dirty.len() as u64 <= config.dirty_page_threshold {
                    converged = true;
                    to_send = dirty;
                    break;
                }
                if rounds >= config.max_rounds {
                    to_send = dirty;
                    break;
                }
                to_send = dirty;
            }

            let pause_start = now;
            let (after_residual, residual_bytes) =
                copy_pages_with_seed(source, dest, &to_send, link, now, compressor.as_mut())?;
            total_bytes += residual_bytes;
            total_pages += to_send.len() as u64;
            breakdown.push(RoundStat {
                pages: to_send.len() as u64,
                bytes: residual_bytes,
                duration: after_residual.saturating_sub(pause_start),
            });
            let state_bytes = VCPU_STATE_BYTES * vcpus.len().max(1) as u64;
            let done = link.transmit(after_residual, state_bytes);
            total_bytes += state_bytes;

            Ok(MigrationReport {
                kind: MigrationKind::PreCopy,
                downtime: done.saturating_sub(pause_start),
                total_time: done.saturating_sub(start),
                rounds,
                bytes_transferred: total_bytes,
                pages_transferred: total_pages,
                memory_size: source.total_size(),
                converged,
                remote_faults: 0,
                avg_fault_latency: Nanoseconds::ZERO,
                rounds_breakdown: breakdown,
            })
        }
    }

    fn region_bytes(mem: &GuestMemory) -> Vec<u8> {
        let mut out = Vec::new();
        for r in mem.regions() {
            r.with_bytes(|b| out.extend_from_slice(b));
        }
        out
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// A pre-copy run over the zero-copy data plane is observably
            /// equivalent to the seed (allocating) path: byte-identical
            /// destination memory and an equal [`MigrationReport`] for the
            /// same deterministic inputs.
            #[test]
            fn zero_copy_precopy_is_equivalent_to_the_seed_path(
                pages in 32u64..256,
                dirty_fraction_pct in 0u64..120,
                mode_idx in 0usize..3,
            ) {
                let config = MigrationConfig {
                    max_rounds: 6,
                    dirty_page_threshold: 8,
                    compression: PageCompression::ALL[mode_idx],
                    ..Default::default()
                };
                let make_dirtier = || {
                    ConstantRateDirtier::from_bandwidth_fraction(
                        LinkModel::gigabit().bytes_per_second,
                        dirty_fraction_pct as f64 / 100.0,
                        0,
                        pages,
                    )
                };

                let (src_a, dst_a) = memories(pages);
                let mut link_a = link();
                let seed_report = seed_reference::precopy_migrate_seed(
                    &src_a,
                    &dst_a,
                    &[VcpuState::default()],
                    &mut link_a,
                    &mut make_dirtier(),
                    &config,
                )
                .unwrap();

                let (src_b, dst_b) = memories(pages);
                let mut link_b = link();
                let zero_copy_report = PreCopy::migrate(
                    &src_b,
                    &dst_b,
                    &[VcpuState::default()],
                    &mut link_b,
                    &mut make_dirtier(),
                    &config,
                )
                .unwrap();

                prop_assert_eq!(zero_copy_report, seed_report);
                prop_assert_eq!(region_bytes(&dst_b), region_bytes(&dst_a));
                prop_assert_eq!(dst_b.checksum(), dst_a.checksum());
            }
        }
    }

    #[test]
    fn sweep_mean_fault_latency_accounts_for_the_serialized_queue() {
        let per_fault = Nanoseconds(1_000);
        let latency = Nanoseconds(100);
        assert_eq!(
            sweep_mean_fault_latency(per_fault, latency, 0),
            Nanoseconds::ZERO
        );
        // One fault pays exactly one propagation delay — the same number
        // the reports' `avg_fault_latency` field records.
        assert_eq!(
            sweep_mean_fault_latency(per_fault, latency, 1),
            Nanoseconds(1_100)
        );
        // The k-th fault queues k delays: mean = latency * (n + 1) / 2.
        assert_eq!(
            sweep_mean_fault_latency(per_fault, latency, 3),
            Nanoseconds(1_200)
        );
        assert!(
            sweep_mean_fault_latency(per_fault, latency, 51)
                > sweep_mean_fault_latency(per_fault, latency, 5)
        );
    }

    #[test]
    fn shared_backing_memory_is_rejected() {
        let src = GuestMemory::flat(ByteSize::pages_of(8)).unwrap();
        let aliased = src.clone();
        let mut l = link();
        let err = StopAndCopy::migrate(&src, &aliased, &[], &mut l);
        assert!(matches!(err, Err(Error::Migration(_))), "got {err:?}");
    }

    #[test]
    fn precopy_transfers_more_bytes_than_stop_and_copy_under_dirtying() {
        let (src, dst) = memories(1024);
        let mut l = link();
        let mut dirtier =
            ConstantRateDirtier::from_bandwidth_fraction(l.model().bytes_per_second, 0.6, 0, 1024);
        let pre = PreCopy::migrate(
            &src,
            &dst,
            &[VcpuState::default()],
            &mut l,
            &mut dirtier,
            &MigrationConfig::default(),
        )
        .unwrap();
        let (src2, dst2) = memories(1024);
        let mut l2 = link();
        let sc = StopAndCopy::migrate(&src2, &dst2, &[VcpuState::default()], &mut l2).unwrap();
        assert!(pre.bytes_transferred > sc.bytes_transferred);
        assert!(pre.downtime < sc.downtime);
        assert!(pre.effective_bandwidth_bytes_per_sec() > 0.0);
    }
}

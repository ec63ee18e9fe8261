//! The streamed migration protocol, written once.
//!
//! Every streamed migration is the same transition system — the Hello
//! handshake, memory rounds, the stop, the vCPU state — whatever carries
//! its bytes. This module holds that system as one phase skeleton per
//! engine (stop-and-copy, iterative pre-copy, post-copy with either
//! fault-service discipline) and [`migrate`], the one public entry point
//! that picks the engine and the data plane from a [`MigrationPlan`].
//!
//! The data plane is a parameter, the private `Plane` trait: it encodes a
//! phase's frames, gets them applied on the destination, and times their
//! crossing of the [`Transport`]. Two implementations exist:
//!
//! * the **serial** plane ([`stream`](crate::stream)) encodes each phase
//!   into the transport's burst, delivers it, and applies it on the
//!   [`MigrationSink`](crate::MigrationSink) before the next phase starts,
//!   all on the calling thread;
//! * the **pipelined** plane ([`pipeline`](crate::pipeline)) shards each
//!   round across stripe encode workers and applies segments on a sink
//!   thread while the next ones encode, presenting the round to the
//!   transport as parallel fair-share streams.
//!
//! Both planes put the same frames on the wire, so the skeletons produce
//! `==` [`MigrationReport`]s and byte-identical destination memory on
//! either (proptest-pinned), with the one divergence the pipeline module
//! documents: under XBZRLE cache pressure the per-stripe caches can make
//! the pipelined plane send fewer bytes.

use rvisor_memory::GuestMemory;
use rvisor_obs::{ArgValue, Trace};
use rvisor_types::{Nanoseconds, Result, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

use crate::compress::{CompressionStats, PageCompression};
use crate::dirty::DirtySource;
use crate::engines::{check_same_size, PER_PAGE_OVERHEAD};
use crate::pipeline::with_pipeline;
use crate::plan::{FaultService, MigrationPlan, PlanEngine};
use crate::report::{MigrationKind, MigrationReport, RoundStat};
use crate::stream::SerialPlane;
use crate::transport::Transport;

/// A data plane: how one phase's frames are encoded, reach the sink, and
/// are timed crossing the transport. Each method sends its phase no earlier
/// than `now` and returns the phase's arrival time.
pub(crate) trait Plane {
    /// Send the stream-opening Hello (version and geometry handshake).
    fn hello(&mut self, transport: &mut dyn Transport, now: Nanoseconds) -> Result<Nanoseconds>;

    /// Send every page of `pages` (ascending indices), then the
    /// end-of-round marker.
    fn round(
        &mut self,
        transport: &mut dyn Transport,
        pages: &[u64],
        now: Nanoseconds,
    ) -> Result<Nanoseconds>;

    /// Send the vCPU state frames (at least one, for vCPU-less shells).
    fn vcpu_states(
        &mut self,
        transport: &mut dyn Transport,
        states: &[VcpuState],
        now: Nanoseconds,
    ) -> Result<Nanoseconds>;

    /// Trace the per-stream payload split of the round just sent, arriving
    /// at `at` (multi-stream planes only).
    fn stripe_instants(&self, _trace: &Trace, _round: u32, _at: Nanoseconds) {}

    /// Compression statistics, where the plane keeps one aggregate
    /// compressor.
    fn compression_stats(&self) -> Option<CompressionStats> {
        None
    }
}

/// Run one migration of `source` into `dest` over `transport`, shaped by
/// `plan`, and emit its spans into `trace` (a no-op with [`Trace::off`]).
///
/// * [`plan.engine`](MigrationPlan::engine) picks the phase skeleton.
///   Pre-copy alone keeps the guest running: `dirty_source` writes into
///   `source` for the duration of every round, and pages cross compressed
///   as [`plan.compression`](MigrationPlan::compression) says.
///   Stop-and-copy and post-copy move a paused guest raw and never call
///   `dirty_source` (pass [`IdleDirtier`](crate::IdleDirtier)).
/// * [`plan.streams`](MigrationPlan::streams) picks the data plane: one
///   stream rides the serial plane, more ride the pipelined plane with
///   [`plan.compressor_workers()`](MigrationPlan::compressor_workers)
///   compression workers.
/// * [`FaultService::FaultLane`] sends post-copy's demand-faulted pages in
///   a first round that overtakes the background sweep. The lane *is* the
///   second stream, so it always rides the serial plane.
///
/// The plan is validated and the two memories are checked for equal size
/// and unshared backing before anything crosses the wire.
pub fn migrate(
    source: &GuestMemory,
    dest: &GuestMemory,
    vcpus: &[VcpuState],
    transport: &mut dyn Transport,
    dirty_source: &mut dyn DirtySource,
    plan: &MigrationPlan,
    trace: &Trace,
) -> Result<MigrationReport> {
    plan.validate()?;
    check_same_size(source, dest)?;
    let compression = match (plan.engine, plan.compression) {
        (PlanEngine::PreCopy, PageCompression::None) => None,
        (PlanEngine::PreCopy, mode) => Some((mode, plan.xbzrle_cache_pages)),
        (PlanEngine::StopAndCopy | PlanEngine::PostCopy, _) => None,
    };
    let mut run = |plane: &mut dyn Plane| {
        let phases = Phases {
            plane,
            transport,
            trace,
        };
        match plan.engine {
            PlanEngine::StopAndCopy => phases.stop_and_copy(source, vcpus),
            PlanEngine::PreCopy => phases.pre_copy(source, vcpus, dirty_source, plan),
            PlanEngine::PostCopy => phases.post_copy(source, vcpus, plan),
        }
    };
    let lane = plan.engine == PlanEngine::PostCopy && plan.fault_service == FaultService::FaultLane;
    if plan.streams.get() == 1 || lane {
        run(&mut SerialPlane::new(source, dest, compression))
    } else {
        with_pipeline(
            source,
            dest,
            compression,
            plan.streams,
            plan.compressor_workers(),
            run,
        )
    }
}

/// One migration in flight: the plane carrying it, the transport timing
/// it, and the trace recording it.
struct Phases<'a> {
    plane: &'a mut dyn Plane,
    transport: &'a mut dyn Transport,
    trace: &'a Trace,
}

impl Phases<'_> {
    /// Send one memory round of `pages` no earlier than `now`, trace it as
    /// round number `round` named `name`, and account its wire bytes and
    /// link time.
    fn round(
        &mut self,
        name: &'static str,
        round: u32,
        pages: &[u64],
        now: Nanoseconds,
    ) -> Result<(Nanoseconds, RoundStat)> {
        let bytes_before = self.transport.bytes_sent();
        let done = self.plane.round(self.transport, pages, now)?;
        let stat = RoundStat {
            pages: pages.len() as u64,
            bytes: self.transport.bytes_sent() - bytes_before,
            duration: done.saturating_sub(now),
        };
        if self.trace.is_on() {
            self.trace.span(
                "migrate/round",
                name,
                now,
                done,
                &[
                    ("round", ArgValue::U64(u64::from(round))),
                    ("pages", ArgValue::U64(stat.pages)),
                    ("bytes", ArgValue::U64(stat.bytes)),
                ],
            );
            self.trace.observe("migrate.round.pages", stat.pages);
            self.trace.observe("migrate.round.bytes", stat.bytes);
        }
        self.plane.stripe_instants(self.trace, round, done);
        Ok((done, stat))
    }

    /// Pause, copy everything, resume: downtime equals total time.
    fn stop_and_copy(
        mut self,
        source: &GuestMemory,
        vcpus: &[VcpuState],
    ) -> Result<MigrationReport> {
        let start = self.transport.free_at();
        let bytes_before = self.transport.bytes_sent();
        let after_hello = self.plane.hello(self.transport, start)?;
        let all_pages: Vec<u64> = (0..source.total_pages()).collect();
        let (after_pages, round) = self.round("round", 1, &all_pages, after_hello)?;
        let done = self.plane.vcpu_states(self.transport, vcpus, after_pages)?;
        let elapsed = done.saturating_sub(start);
        let report = MigrationReport {
            kind: MigrationKind::StopAndCopy,
            downtime: elapsed,
            total_time: elapsed,
            rounds: 1,
            bytes_transferred: self.transport.bytes_sent() - bytes_before,
            pages_transferred: round.pages,
            memory_size: source.total_size(),
            converged: true,
            remote_faults: 0,
            avg_fault_latency: Nanoseconds::ZERO,
            rounds_breakdown: vec![round],
        };
        self.finish(report, start, done)
    }

    /// Iterative pre-copy: rounds of dirtied pages while the guest runs,
    /// then a paused stop phase for the residual dirty set and the state.
    fn pre_copy(
        mut self,
        source: &GuestMemory,
        vcpus: &[VcpuState],
        dirty_source: &mut dyn DirtySource,
        plan: &MigrationPlan,
    ) -> Result<MigrationReport> {
        let start = self.transport.free_at();
        let bytes_before = self.transport.bytes_sent();
        let mut now = self.plane.hello(self.transport, start)?;
        let mut total_pages = 0u64;
        let mut rounds = 0u32;
        let mut converged = false;

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
        let mut breakdown: Vec<RoundStat> = Vec::with_capacity(plan.max_rounds as usize + 1);

        loop {
            rounds += 1;
            let (done, stat) = self.round("round", rounds, &to_send, now)?;
            total_pages += stat.pages;
            breakdown.push(stat);
            // The guest ran (and dirtied memory) for the whole round.
            dirty_source.run_for(source, stat.duration)?;
            now = done;

            source.drain_dirty_into(&mut harvest);
            std::mem::swap(&mut to_send, &mut harvest);
            if to_send.len() as u64 <= plan.dirty_page_threshold {
                converged = true;
                break;
            }
            if rounds >= plan.max_rounds {
                break;
            }
        }

        // Stop phase: the guest is paused; transfer the residual dirty set
        // and the state.
        let pause_start = now;
        let (after_residual, stop) = self.round("stop-phase", rounds + 1, &to_send, now)?;
        total_pages += stop.pages;
        breakdown.push(stop);
        let done = self
            .plane
            .vcpu_states(self.transport, vcpus, after_residual)?;

        let report = MigrationReport {
            kind: MigrationKind::PreCopy,
            downtime: done.saturating_sub(pause_start),
            total_time: done.saturating_sub(start),
            rounds,
            bytes_transferred: self.transport.bytes_sent() - bytes_before,
            pages_transferred: total_pages,
            memory_size: source.total_size(),
            converged,
            remote_faults: 0,
            avg_fault_latency: Nanoseconds::ZERO,
            rounds_breakdown: breakdown,
        };
        self.finish(report, start, done)
    }

    /// Post-copy: pause only while the vCPU state crosses, resume on the
    /// destination, then pull all memory — a fraction of it through demand
    /// faults serviced as [`MigrationPlan::fault_service`] says.
    fn post_copy(
        mut self,
        source: &GuestMemory,
        vcpus: &[VcpuState],
        plan: &MigrationPlan,
    ) -> Result<MigrationReport> {
        let start = self.transport.free_at();
        let bytes_before = self.transport.bytes_sent();
        let after_hello = self.plane.hello(self.transport, start)?;
        // Pause: only the vCPU/device state crosses before resume.
        let resumed_at = self.plane.vcpu_states(self.transport, vcpus, after_hello)?;
        let downtime = resumed_at.saturating_sub(after_hello);

        let total_pages = source.total_pages();
        let fault_pages = ((total_pages as f64) * plan.postcopy_fault_fraction).round() as u64;
        let fault_pages = fault_pages.min(total_pages);
        let all_pages: Vec<u64> = (0..total_pages).collect();

        let (done, rounds_breakdown) = match plan.fault_service {
            FaultService::Sweep => {
                let (after_pages, round) = self.round("round", 1, &all_pages, resumed_at)?;
                // Demand faults serialize with the background sweep: each
                // pays one extra propagation delay (the request direction).
                let fault_penalty = Nanoseconds(self.transport.latency().as_nanos() * fault_pages);
                (after_pages.saturating_add(fault_penalty), vec![round])
            }
            FaultService::FaultLane => {
                // The faulted pages cross first, in one dedicated burst
                // ahead of the sweep over everything else. Each fault pays
                // a single propagation delay, already inside the lane
                // burst, so no serialized penalty accrues.
                let (lane_pages, sweep_pages) = all_pages.split_at(fault_pages as usize);
                let (after_lane, lane) = self.round("fault-lane", 1, lane_pages, resumed_at)?;
                let (after_sweep, sweep) = self.round("sweep", 2, sweep_pages, after_lane)?;
                (after_sweep, vec![lane, sweep])
            }
        };
        let per_fault_latency = self.transport.transfer_time(PAGE_SIZE + PER_PAGE_OVERHEAD);

        let report = MigrationReport {
            kind: MigrationKind::PostCopy,
            downtime,
            total_time: done.saturating_sub(start),
            rounds: rounds_breakdown.len() as u32,
            bytes_transferred: self.transport.bytes_sent() - bytes_before,
            pages_transferred: total_pages,
            memory_size: source.total_size(),
            converged: true,
            remote_faults: fault_pages,
            avg_fault_latency: per_fault_latency.saturating_add(self.transport.latency()),
            rounds_breakdown,
        };
        self.finish(report, start, done)
    }

    /// Emit the per-migration summary span, histogram samples and counters
    /// (nothing at all, not even an allocation, when tracing is off) and
    /// hand the report back.
    fn finish(
        &self,
        report: MigrationReport,
        start: Nanoseconds,
        end: Nanoseconds,
    ) -> Result<MigrationReport> {
        let trace = self.trace;
        if trace.is_on() {
            let stats = self.plane.compression_stats().unwrap_or_default();
            trace.span(
                "migrate",
                report.kind.name(),
                start,
                end,
                &[
                    ("pages", ArgValue::U64(report.pages_transferred)),
                    ("bytes", ArgValue::U64(report.bytes_transferred)),
                    ("rounds", ArgValue::U64(u64::from(report.rounds))),
                    ("downtime_ns", ArgValue::U64(report.downtime.as_nanos())),
                    ("converged", ArgValue::U64(u64::from(report.converged))),
                    ("zero_pages", ArgValue::U64(stats.pages_zero)),
                    ("delta_pages", ArgValue::U64(stats.pages_delta)),
                    ("raw_pages", ArgValue::U64(stats.pages_raw)),
                ],
            );
            trace.observe("migration.downtime_ns", report.downtime.as_nanos());
            trace.observe("migration.duration_ns", report.total_time.as_nanos());
            trace.add("migrations", 1);
        }
        Ok(report)
    }
}

//! The pipelined, multi-stream data plane.
//!
//! The serial plane in [`stream`](crate::stream) runs encode and decode
//! back to back on one thread: the source encodes a full round, the sink
//! applies it, repeat. This plane, which [`migrate`](crate::migrate) picks
//! for plans with more than one stream, overlaps the two halves and shards
//! the encode work, while staying **byte-identical and
//! [`MigrationReport`](crate::MigrationReport)-`==` to the serial plane**
//! (pinned by proptest below):
//!
//! * **Pipelining** — a dedicated sink thread owns the destination-side
//!   [`MigrationSink`]; the coordinator ships encoded segments to it over a
//!   bounded `std::sync::mpsc` channel and receives the buffers back on a
//!   recycle channel, so decode/apply of one segment overlaps encode of the
//!   next and steady-state rounds reuse the same buffers. The buffer set is
//!   fixed when the pipeline starts — one pool of control-frame buffers and
//!   two body buffers per stripe, used on alternate rounds — and a
//!   coordinator that finds its buffer still in flight waits for the sink
//!   to hand it back rather than allocating a fresh one. Which buffer
//!   carries which bytes, and so every buffer's growth, is a function of
//!   the byte stream alone, never of thread scheduling.
//! * **Multi-stream scatter** — [`MigrationPlan::streams`](crate::MigrationPlan::streams)
//!   shards the page-index space into *fixed* contiguous stripes (`stripe =
//!   page / ceil(total_pages / streams)`). One encode worker owns each
//!   stripe, so a page always travels on the same stream, per-stripe XBZRLE
//!   caches stay coherent across rounds, and — because stripes are disjoint
//!   — sink-side applies can never race. Per-stripe results are merged in
//!   stripe order, which is what keeps same-seed runs `==`-replay-equal.
//! * **Boundary stitching** — zero runs crossing a stripe boundary are
//!   exported unencoded by the workers and re-coalesced by the coordinator,
//!   so the merged stream carries *exactly* the frames the serial encoder
//!   would (same [`ZeroRun`](crate::wire::FrameKind::ZeroRun) coalescing,
//!   same bytes, same report).
//!
//! # Parallelism model assumptions
//!
//! The simulated network does **not** speed up under multi-stream: the
//! round's per-stripe byte counts are presented to
//! [`Transport::transmit_striped`], which models N chunk streams *fairly
//! sharing* the path — on a loopback that is exactly the aggregate burst
//! (keeping the `==` pin to the serial plane), and on a
//! [`ClosFabric`](rvisor_net::ClosFabric) each stream additionally pays its
//! own MTU chunk framing, so on the single-spine preset and inside a rack
//! simulated time is never *better* than serial (a cross-rack burst on a
//! multi-spine fabric is the one place striping wins simulated time). What
//! parallel streams buy is **host wall-clock**: encode and apply overlap
//! and encode itself fans out across cores, which is the speedup experiment
//! E18 measures. On a single-core host the pipeline degrades gracefully to
//! roughly serial speed (the threads time-slice); the byte stream, the
//! destination memory and the report are identical either way. One
//! deliberate divergence: each stripe's XBZRLE cache has the full
//! configured capacity, so the aggregate cache across N streams is N× the
//! serial plane's. With cache pressure the pipelined plane may therefore
//! send *fewer* bytes than serial (never more, never wrong bytes); without
//! eviction — the common case, and every configuration the equivalence
//! proptests run — the two are bit-identical.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

use rvisor_memory::GuestMemory;
use rvisor_obs::{ArgValue, Trace};
use rvisor_types::{Error, Nanoseconds, Result};
use rvisor_vcpu::VcpuState;

use crate::compress::{PageCompression, PageCompressor, WirePage};
use crate::protocol::Plane;
use crate::stream::MigrationSink;
use crate::transport::Transport;
use crate::wire;

/// One round's work order for an encode/compression worker: which stripe it
/// is, the stripe's slice of the round's page list and a recycled buffer to
/// encode into.
struct RoundTask {
    stripe: usize,
    pages: Vec<u64>,
    body: Vec<u8>,
}

/// A zero run withheld at a stripe boundary: `(first page, page count)`.
type Run = (u64, u64);

/// What a stripe worker hands back per round.
struct StripeEncoding {
    /// Zero run at the very start of the stripe's page list (may continue
    /// the previous stripe's trailing run).
    leading: Option<Run>,
    /// Frames for everything between the boundary runs.
    body: Vec<u8>,
    /// Zero run still pending at the stripe's end (may continue into the
    /// next stripe's leading run).
    trailing: Option<Run>,
    /// The task's page list, handed back for recycling.
    pages: Vec<u64>,
}

/// Flush a finished zero run: the run opening the stripe is exported for
/// boundary stitching, every later run is encoded in place exactly as the
/// serial encoder would.
fn flush_run(body: &mut Vec<u8>, leading: &mut Option<Run>, first_page: Option<u64>, run: Run) {
    let (first, count) = run;
    if leading.is_none() && body.is_empty() && Some(first) == first_page {
        *leading = Some(run);
    } else {
        put_run(body, first, count);
    }
}

/// Encode a run as the serial encoder does: a lone zero page costs the same
/// 1-byte marker frame, run-length coding pays from two pages up.
fn put_run(out: &mut Vec<u8>, first: u64, count: u64) {
    if count == 1 {
        wire::put_page_zero(out, first);
    } else {
        wire::put_zero_run(out, first, count);
    }
}

/// Worker body: encode one stripe's pages, withholding boundary zero runs.
fn encode_stripe(
    memory: &GuestMemory,
    mut compressor: Option<&mut PageCompressor>,
    task: RoundTask,
) -> Result<StripeEncoding> {
    let RoundTask {
        stripe: _,
        pages,
        mut body,
    } = task;
    body.clear();
    let first_page = pages.first().copied();
    let mut leading: Option<Run> = None;
    let mut pending: Option<Run> = None;
    for &p in &pages {
        match compressor.as_deref_mut() {
            None => {
                memory.with_page(p, |contents| wire::put_page_raw(&mut body, p, contents))?;
            }
            Some(c) => {
                let encoded = memory.with_page(p, |contents| c.compress(p, contents))?;
                if let WirePage::Zero = encoded {
                    pending = match pending {
                        Some((first, count)) if first + count == p => Some((first, count + 1)),
                        other => {
                            if let Some(run) = other {
                                flush_run(&mut body, &mut leading, first_page, run);
                            }
                            Some((p, 1))
                        }
                    };
                    continue;
                }
                if let Some(run) = pending.take() {
                    flush_run(&mut body, &mut leading, first_page, run);
                }
                wire::put_wire_page(&mut body, p, &encoded);
            }
        }
    }
    let trailing = match pending.take() {
        Some((first, count))
            if leading.is_none() && body.is_empty() && Some(first) == first_page =>
        {
            // The whole stripe is one zero run: export it as the leading
            // run so it can merge with *both* neighbours.
            leading = Some((first, count));
            None
        }
        other => other,
    };
    Ok(StripeEncoding {
        leading,
        body,
        trailing,
        pages,
    })
}

fn channel_closed(what: &str) -> Error {
    Error::Migration(format!("pipelined migration {what} terminated early"))
}

/// Control-frame buffers per stream: enough for a round's boundary zero
/// runs and its end-of-round marker to be in flight at once.
const CTL_BUFS_PER_STREAM: usize = 2;
/// Capacity every control-frame buffer starts with: room for any frame a
/// round ships on the control stream (hello, zero runs, end of round).
const CTL_BUF_CAPACITY: usize = 64;

/// The pool a buffer returns to once the sink has applied it.
#[derive(Debug, Clone, Copy)]
enum Home {
    /// The shared control-frame pool.
    Ctl,
    /// A body slot: stripe `s` owns slots `2s` and `2s + 1` and alternates
    /// between them by round parity.
    Body(usize),
}

/// The coordinator's handle onto a running pipeline: stripe workers, the
/// sink thread, and the recycled-buffer pools connecting them.
struct Pipeline<'p> {
    total_pages: u64,
    memory_bytes: u64,
    stripe_len: u64,
    round: u32,
    task_txs: Vec<SyncSender<RoundTask>>,
    result_rxs: Vec<Receiver<Result<StripeEncoding>>>,
    seg_tx: SyncSender<(Vec<u8>, Home)>,
    recycle_rx: &'p Receiver<(Vec<u8>, Home)>,
    /// Control-frame buffers the sink has handed back.
    ctl_pool: Vec<Vec<u8>>,
    /// Stripe body buffers by slot; `None` while the slot's buffer is with
    /// a worker or the sink.
    body_slots: Vec<Option<Vec<u8>>>,
    /// Recycled per-stripe page-index lists.
    page_pool: Vec<Vec<u64>>,
    /// Per-stripe payload bytes of the round being encoded (what
    /// [`Transport::transmit_striped`] is fed); control frames ride
    /// stripe 0, stitched runs are attributed to the stripe they start in.
    stripe_bytes: Vec<u64>,
    /// Which stripes received a task this round.
    dispatched: Vec<bool>,
}

impl Pipeline<'_> {
    /// Return a buffer to its home pool, emptied.
    fn put_back(&mut self, mut buf: Vec<u8>, home: Home) {
        buf.clear();
        match home {
            Home::Ctl => self.ctl_pool.push(buf),
            Home::Body(slot) => self.body_slots[slot] = Some(buf),
        }
    }

    /// Take a buffer from `home`'s pool, waiting for the sink to hand one
    /// back while the pool is empty. The wait always ends: control buffers
    /// only ever travel to the sink, and a body slot is taken two rounds
    /// after its last use, when its buffer has long left the workers and
    /// is queued for, or being applied by, the sink.
    fn take(&mut self, home: Home) -> Result<Vec<u8>> {
        loop {
            let ready = match home {
                Home::Ctl => self.ctl_pool.pop(),
                Home::Body(slot) => self.body_slots[slot].take(),
            };
            if let Some(buf) = ready {
                return Ok(buf);
            }
            let (buf, from) = self.recycle_rx.recv().map_err(|_| channel_closed("sink"))?;
            self.put_back(buf, from);
        }
    }

    /// The body slot stripe `stripe` encodes into this round.
    fn body_home(&self, stripe: usize) -> Home {
        Home::Body(2 * stripe + (self.round % 2) as usize)
    }

    /// Ship one segment of whole frames to the sink thread, in stream
    /// order. Returns its length.
    fn ship(&mut self, seg: Vec<u8>, home: Home) -> Result<u64> {
        let len = seg.len() as u64;
        if len == 0 {
            self.put_back(seg, home);
            return Ok(0);
        }
        self.seg_tx
            .send((seg, home))
            .map_err(|_| channel_closed("sink"))?;
        Ok(len)
    }

    fn ship_run(&mut self, stripe: usize, first: u64, count: u64) -> Result<()> {
        let mut buf = self.take(Home::Ctl)?;
        put_run(&mut buf, first, count);
        self.stripe_bytes[stripe] += buf.len() as u64;
        self.ship(buf, Home::Ctl)?;
        Ok(())
    }

    /// Encode one round of `pages` (ascending global indices) across the
    /// stripe workers, stitch the boundary zero runs, ship the merged
    /// stream to the sink and terminate it with an end-of-round marker.
    /// `stripe_bytes` afterwards holds the round's per-stream payload split.
    fn encode_round(&mut self, pages: &[u64]) -> Result<()> {
        self.stripe_bytes.fill(0);
        self.dispatched.fill(false);
        // Scatter: stripe s owns the fixed index range
        // [s * stripe_len, (s + 1) * stripe_len); the ascending page list
        // partitions into contiguous per-stripe sublists.
        let streams = self.task_txs.len();
        let mut start = 0usize;
        for s in 0..streams {
            let stripe_end = (s as u64 + 1).saturating_mul(self.stripe_len);
            let end = start + pages[start..].partition_point(|&p| p < stripe_end);
            if end > start {
                let mut task_pages = self.page_pool.pop().unwrap_or_default();
                task_pages.clear();
                task_pages.extend_from_slice(&pages[start..end]);
                let body = self.take(self.body_home(s))?;
                self.task_txs[s]
                    .send(RoundTask {
                        stripe: s,
                        pages: task_pages,
                        body,
                    })
                    .map_err(|_| channel_closed("encode worker"))?;
                self.dispatched[s] = true;
            }
            start = end;
        }
        // Gather in stripe order, re-coalescing runs across boundaries so
        // the merged stream is frame-for-frame the serial encoder's.
        // `pending` carries the run still open at the current boundary and
        // the stripe it started in (for byte attribution).
        let mut pending: Option<(usize, Run)> = None;
        for s in 0..streams {
            if !self.dispatched[s] {
                continue;
            }
            let enc = self.result_rxs[s]
                .recv()
                .map_err(|_| channel_closed("encode worker"))??;
            let StripeEncoding {
                leading,
                body,
                trailing,
                pages: task_pages,
            } = enc;
            self.page_pool.push(task_pages);
            if let Some((lf, lc)) = leading {
                pending = match pending {
                    Some((os, (pf, pc))) if pf + pc == lf => Some((os, (pf, pc + lc))),
                    Some((os, (pf, pc))) => {
                        self.ship_run(os, pf, pc)?;
                        Some((s, (lf, lc)))
                    }
                    None => Some((s, (lf, lc))),
                };
            }
            if !body.is_empty() {
                if let Some((os, (pf, pc))) = pending.take() {
                    self.ship_run(os, pf, pc)?;
                }
                self.stripe_bytes[s] += body.len() as u64;
                self.ship(body, self.body_home(s))?;
                pending = trailing.map(|run| (s, run));
            } else if let Some(run) = trailing {
                // The stripe was zero runs only; its trailing run cannot
                // continue the leading one (there was an index gap).
                if let Some((os, (pf, pc))) = pending.take() {
                    self.ship_run(os, pf, pc)?;
                }
                self.put_back(body, self.body_home(s));
                pending = Some((s, run));
            } else {
                self.put_back(body, self.body_home(s));
            }
        }
        if let Some((os, (pf, pc))) = pending.take() {
            self.ship_run(os, pf, pc)?;
        }
        // End-of-round marker rides the control stream (stripe 0).
        let mut buf = self.take(Home::Ctl)?;
        wire::put_end_of_round(&mut buf, self.round);
        self.round += 1;
        self.stripe_bytes[0] += buf.len() as u64;
        self.ship(buf, Home::Ctl)?;
        Ok(())
    }
}

impl Plane for Pipeline<'_> {
    fn hello(&mut self, transport: &mut dyn Transport, now: Nanoseconds) -> Result<Nanoseconds> {
        let mut buf = self.take(Home::Ctl)?;
        wire::put_hello(&mut buf, self.total_pages, self.memory_bytes);
        let bytes = self.ship(buf, Home::Ctl)?;
        transport.transmit_bytes(now, bytes)
    }

    fn round(
        &mut self,
        transport: &mut dyn Transport,
        pages: &[u64],
        now: Nanoseconds,
    ) -> Result<Nanoseconds> {
        self.encode_round(pages)?;
        transport.transmit_striped(now, &self.stripe_bytes)
    }

    fn vcpu_states(
        &mut self,
        transport: &mut dyn Transport,
        states: &[VcpuState],
        now: Nanoseconds,
    ) -> Result<Nanoseconds> {
        let placeholder = [VcpuState::default()];
        let states = if states.is_empty() {
            &placeholder[..]
        } else {
            states
        };
        let mut buf = self.take(Home::Ctl)?;
        for (i, state) in states.iter().enumerate() {
            wire::put_vcpu_state(&mut buf, i as u32, state);
        }
        let bytes = self.ship(buf, Home::Ctl)?;
        transport.transmit_bytes(now, bytes)
    }

    /// One instant per active stream on the `migrate/stream` track,
    /// recording the payload split [`Transport::transmit_striped`] was fed.
    fn stripe_instants(&self, trace: &Trace, round: u32, at: Nanoseconds) {
        if !trace.is_on() {
            return;
        }
        for (stream, &bytes) in self.stripe_bytes.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            trace.instant(
                "migrate/stream",
                "stripe",
                at,
                &[
                    ("round", ArgValue::U64(u64::from(round))),
                    ("stream", ArgValue::U64(stream as u64)),
                    ("bytes", ArgValue::U64(bytes)),
                ],
            );
        }
    }
}

/// Stand up the worker fleet and sink thread, run `f` on the coordinator,
/// then tear everything down — propagating a sink-side error in preference
/// to the coordinator's (a broken sink surfaces as a channel failure on the
/// coordinator, and the sink's own error says why).
///
/// The encode stage and the compression stage scale independently: raw
/// rounds get one encode worker per stripe (`streams`), compressed rounds
/// run on a separate pool of `compressors` compression workers. Stripe `s`
/// is statically owned by worker `s % workers` and each worker keeps one
/// persistent [`PageCompressor`] *per stripe it owns*, so every stripe sees
/// the same sequence of compress calls — and produces byte-identical frames
/// — for any worker count (pinned by test). The knob trades host wall-clock
/// only.
pub(crate) fn with_pipeline<R>(
    source: &GuestMemory,
    dest: &GuestMemory,
    compression: Option<(PageCompression, usize)>,
    streams: NonZeroUsize,
    compressors: NonZeroUsize,
    f: impl FnOnce(&mut dyn Plane) -> Result<R>,
) -> Result<R> {
    let streams = streams.get();
    // More workers than stripes cannot help: stripes are the unit of work.
    let workers = match compression {
        None => streams,
        Some(_) => compressors.get().min(streams),
    };
    let total_pages = source.total_pages();
    let stripe_len = total_pages.div_ceil(streams as u64).max(1);
    let ctl_bufs = CTL_BUFS_PER_STREAM * streams;
    thread::scope(|scope| {
        let (seg_tx, seg_rx) = sync_channel::<(Vec<u8>, Home)>(4 * streams + 8);
        // Room for every buffer the pipeline owns, so handing one back
        // never blocks the sink.
        let (recycle_tx, recycle_rx) = sync_channel::<(Vec<u8>, Home)>(ctl_bufs + 2 * streams);
        let sink_thread = scope.spawn(move || -> Result<()> {
            let mut sink = MigrationSink::new(dest);
            while let Ok((seg, home)) = seg_rx.recv() {
                let applied = sink.apply_burst(&seg);
                let _ = recycle_tx.send((seg, home));
                applied?;
            }
            Ok(())
        });
        // Per-stripe result channels: the coordinator still gathers in
        // stripe order, whatever worker encoded the stripe.
        let mut result_txs = Vec::with_capacity(streams);
        let mut result_rxs = Vec::with_capacity(streams);
        for _ in 0..streams {
            let (result_tx, result_rx) = sync_channel::<Result<StripeEncoding>>(1);
            result_txs.push(result_tx);
            result_rxs.push(result_rx);
        }
        // Each result channel carries at most one encoding per round and is
        // fully drained before the next round's scatter, so a worker's
        // result sends never block and the task channels below can never
        // deadlock against them.
        let mut worker_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            // A worker may be handed every stripe it owns before it drains
            // any of them; size the task channel for a full round.
            let (task_tx, task_rx) = sync_channel::<RoundTask>(streams.div_ceil(workers));
            let results: Vec<SyncSender<Result<StripeEncoding>>> = result_txs.clone();
            scope.spawn(move || {
                let mut per_stripe: BTreeMap<usize, PageCompressor> = BTreeMap::new();
                while let Ok(task) = task_rx.recv() {
                    let stripe = task.stripe;
                    let compressor = compression.map(|(mode, cache_pages)| {
                        per_stripe.entry(stripe).or_insert_with(|| {
                            PageCompressor::with_cache_capacity(mode, cache_pages)
                        })
                    });
                    let encoded = encode_stripe(source, compressor, task);
                    if results[stripe].send(encoded).is_err() {
                        break;
                    }
                }
            });
            worker_txs.push(task_tx);
        }
        drop(result_txs);
        let task_txs: Vec<SyncSender<RoundTask>> = (0..streams)
            .map(|s| worker_txs[s % workers].clone())
            .collect();
        drop(worker_txs);
        let mut pipeline = Pipeline {
            total_pages,
            memory_bytes: source.total_size().as_u64(),
            stripe_len,
            round: 0,
            task_txs,
            result_rxs,
            seg_tx,
            recycle_rx: &recycle_rx,
            ctl_pool: (0..ctl_bufs)
                .map(|_| Vec::with_capacity(CTL_BUF_CAPACITY))
                .collect(),
            body_slots: vec![Some(Vec::new()); 2 * streams],
            page_pool: Vec::new(),
            stripe_bytes: vec![0u64; streams],
            dispatched: vec![false; streams],
        };
        let out = f(&mut pipeline);
        // Closing the channels releases the workers and flushes the sink;
        // joining the sink guarantees every shipped frame has been applied
        // before the destination memory is handed back to the caller.
        drop(pipeline);
        let sink_out = sink_thread.join().expect("migration sink thread panicked");
        match sink_out {
            Err(e) => Err(e),
            Ok(()) => out,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::{ConstantRateDirtier, DirtySource, IdleDirtier};
    use crate::engines::{MigrationConfig, MAX_MIGRATION_STREAMS};
    use crate::plan::{MigrationPlan, PlanEngine};
    use crate::report::{MigrationKind, MigrationReport, RoundStat};
    use crate::transport::{FabricTransport, LoopbackTransport};
    use rvisor_net::{ClosFabric, ClosParams, FabricParams, Link, LinkModel};
    use rvisor_types::{ByteSize, GuestAddress, PAGE_SIZE};

    const ENGINES: [PlanEngine; 3] = [
        PlanEngine::StopAndCopy,
        PlanEngine::PreCopy,
        PlanEngine::PostCopy,
    ];

    fn streams(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("non-zero")
    }

    /// Source with content, zero gaps that straddle stripe boundaries, and
    /// an all-zero tail (the stitching stress pattern).
    fn memories(pages: u64) -> (GuestMemory, GuestMemory) {
        let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        for p in 0..pages {
            if p % 7 < 4 && p < pages - pages / 4 {
                src.write_u64(GuestAddress(p * PAGE_SIZE), p * 7 + 1)
                    .unwrap();
            }
        }
        (src, dst)
    }

    fn region_bytes(mem: &GuestMemory) -> Vec<u8> {
        let mut out = Vec::new();
        for r in mem.regions() {
            r.with_bytes(|b| out.extend_from_slice(b));
        }
        out
    }

    /// One migration through the plan-driven entry point, tracing off:
    /// serial for a one-stream plan, pipelined otherwise.
    fn run_plan(
        src: &GuestMemory,
        dst: &GuestMemory,
        transport: &mut dyn Transport,
        dirtier: &mut dyn DirtySource,
        plan: &MigrationPlan,
    ) -> Result<MigrationReport> {
        let vcpus = [VcpuState::default()];
        crate::migrate(src, dst, &vcpus, transport, dirtier, plan, &Trace::off())
    }

    /// `engine` (an index into [`ENGINES`]) over a gigabit loopback while the
    /// guest dirties `dirty_fraction` of the link bandwidth, shaped by
    /// `config`.
    fn report_for(
        engine: usize,
        pages: u64,
        dirty_fraction: f64,
        config: &MigrationConfig,
    ) -> (MigrationReport, Vec<u8>) {
        let (src, dst) = memories(pages);
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
            LinkModel::gigabit().bytes_per_second,
            dirty_fraction,
            0,
            pages,
        );
        let plan = config.plan(ENGINES[engine]);
        let report = run_plan(&src, &dst, &mut transport, &mut dirtier, &plan).unwrap();
        (report, region_bytes(&dst))
    }

    #[test]
    fn pipelined_matches_serial_for_every_engine_and_stream_count() {
        for engine in 0..3usize {
            let (serial, serial_mem) = report_for(engine, 256, 0.4, &MigrationConfig::default());
            for n in [2usize, 3, 4, 7] {
                let config = MigrationConfig {
                    streams: streams(n),
                    ..Default::default()
                };
                let (pipelined, pipelined_mem) = report_for(engine, 256, 0.4, &config);
                assert_eq!(pipelined, serial, "engine {engine} at {n} streams");
                assert_eq!(
                    pipelined_mem, serial_mem,
                    "engine {engine} at {n} streams: memory diverged"
                );
            }
        }
    }

    #[test]
    fn zero_runs_stitch_across_stripe_boundaries() {
        // An all-zero guest: serial coalesces every round into one ZeroRun
        // frame. With 4 stripes the run crosses 3 boundaries and must be
        // re-coalesced to the identical frame (equal bytes proves it:
        // split runs would cost 3 extra frame headers).
        let pages = 256u64;
        let run = |n: usize| {
            let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
            let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
            let mut link = Link::new(LinkModel::gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let plan = MigrationPlan {
                streams: streams(n),
                compression: PageCompression::ZeroPages,
                ..Default::default()
            };
            run_plan(&src, &dst, &mut transport, &mut IdleDirtier, &plan).unwrap()
        };
        let serial = run(1);
        for n in [2usize, 4, 8] {
            assert_eq!(run(n), serial, "{n} streams");
        }
    }

    #[test]
    fn multi_stream_fabric_migration_replays_identically_and_pays_framing() {
        let pages = 512u64;
        let run = |n: usize| {
            let (src, dst) = memories(pages);
            let mut fabric =
                ClosFabric::new(2, ClosParams::single_spine(FabricParams::office_lan(), 2))
                    .unwrap();
            let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
            let plan = MigrationPlan {
                streams: streams(n),
                ..Default::default()
            };
            let report = run_plan(&src, &dst, &mut transport, &mut IdleDirtier, &plan).unwrap();
            (report, region_bytes(&dst))
        };
        let (serial, serial_mem) = run(1);
        let (four, four_mem) = run(4);
        // Fair-share chunk streams: same payload bytes, identical memory,
        // never faster than the aggregate stream (per-stream MTU framing).
        assert_eq!(four.bytes_transferred, serial.bytes_transferred);
        assert_eq!(four_mem, serial_mem);
        assert!(four.total_time >= serial.total_time);
        // Same-seed multi-stream runs replay `==`.
        let (replay, replay_mem) = run(4);
        assert_eq!(replay, four);
        assert_eq!(replay_mem, four_mem);
    }

    #[test]
    fn pipelined_rejects_bad_configs_and_mismatched_memories() {
        let (src, dst) = memories(8);
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let too_many = MigrationPlan {
            engine: PlanEngine::StopAndCopy,
            streams: streams(MAX_MIGRATION_STREAMS + 1),
            ..Default::default()
        };
        assert!(run_plan(&src, &dst, &mut transport, &mut IdleDirtier, &too_many).is_err());
        let small = GuestMemory::flat(ByteSize::pages_of(2)).unwrap();
        let post_copy = MigrationPlan {
            engine: PlanEngine::PostCopy,
            streams: streams(2),
            ..Default::default()
        };
        assert!(run_plan(&src, &small, &mut transport, &mut IdleDirtier, &post_copy).is_err());
    }

    #[test]
    fn compressor_worker_count_never_changes_the_bytes() {
        // The compression stage is decoupled from the stripe workers; any
        // compressor-worker count must produce the identical report and
        // destination memory (per-stripe compressor state is preserved no
        // matter which worker owns the stripe).
        let pages = 256u64;
        for compression in [PageCompression::ZeroPages, PageCompression::Xbzrle] {
            let run = |compressors: Option<usize>| {
                let (src, dst) = memories(pages);
                let mut link = Link::new(LinkModel::gigabit());
                let mut transport = LoopbackTransport::new(&mut link);
                let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
                    LinkModel::gigabit().bytes_per_second,
                    0.4,
                    0,
                    pages,
                );
                let mut builder = MigrationPlan::builder(PlanEngine::PreCopy)
                    .streams(streams(6))
                    .compression(compression);
                if let Some(c) = compressors {
                    builder = builder.compressors(streams(c));
                }
                let plan = builder.build().unwrap();
                let report = run_plan(&src, &dst, &mut transport, &mut dirtier, &plan).unwrap();
                (report, region_bytes(&dst))
            };
            let (base, base_mem) = run(None);
            for c in [1usize, 2, 3, 8] {
                let (report, mem) = run(Some(c));
                assert_eq!(report, base, "{compression:?} with {c} compressors");
                assert_eq!(mem, base_mem, "{compression:?} with {c} compressors");
            }
        }
    }

    /// Under XBZRLE cache pressure the pipelined plane is the one
    /// documented divergence from the serial plane, so no reference engine
    /// covers it: its report is pinned to the literal the pre-refactor
    /// pipelined pre-copy produced. Each of the 4 stripes caches its whole
    /// 64-page stripe, so the dirtied pages come back as deltas; the serial
    /// plane's single 64-page cache thrashes and resends them raw.
    #[test]
    fn xbzrle_cache_pressure_report_is_golden() {
        let pages = 256u64;
        let run = |n: usize| {
            let (src, dst) = memories(pages);
            let mut link = Link::new(LinkModel::gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
                LinkModel::gigabit().bytes_per_second,
                0.6,
                0,
                pages,
            );
            let plan = MigrationPlan {
                streams: streams(n),
                compression: PageCompression::Xbzrle,
                xbzrle_cache_pages: 64,
                max_rounds: 8,
                dirty_page_threshold: 4,
                ..Default::default()
            };
            let report = run_plan(&src, &dst, &mut transport, &mut dirtier, &plan).unwrap();
            assert_eq!(region_bytes(&dst), region_bytes(&src), "{n} streams");
            report
        };
        let golden = MigrationReport {
            kind: MigrationKind::PreCopy,
            downtime: Nanoseconds(433_600),
            total_time: Nanoseconds(4_702_824),
            rounds: 2,
            bytes_transferred: 462_853,
            pages_transferred: 330,
            memory_size: ByteSize(1_048_576),
            converged: true,
            remote_faults: 0,
            avg_fault_latency: Nanoseconds::ZERO,
            rounds_breakdown: vec![
                RoundStat {
                    pages: 256,
                    bytes: 457_120,
                    duration: Nanoseconds(3_856_960),
                },
                RoundStat {
                    pages: 70,
                    bytes: 1_499,
                    duration: Nanoseconds(211_992),
                },
                RoundStat {
                    pages: 4,
                    bytes: 104,
                    duration: Nanoseconds(200_832),
                },
            ],
        };
        assert_eq!(run(4), golden);
        let serial = run(1);
        assert_eq!(serial.bytes_transferred, 1_382_466);
        assert!(serial.bytes_transferred > golden.bytes_transferred);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// The pipelined plane is byte-identical and
            /// `MigrationReport`-equal to the serial plane (and so,
            /// transitively, to the direct in-memory engines) for all three
            /// engines, any stream count, with and without compression.
            #[test]
            fn pipelined_engine_is_equivalent_to_the_serial_path(
                engine in 0usize..3,
                pages in 32u64..160,
                dirty_fraction_pct in 0u64..120,
                n_streams in 2usize..7,
                mode_idx in 0usize..3,
            ) {
                let serial_config = MigrationConfig {
                    max_rounds: 6,
                    dirty_page_threshold: 8,
                    compression: PageCompression::ALL[mode_idx],
                    ..Default::default()
                };
                let pipelined_config = MigrationConfig {
                    streams: streams(n_streams),
                    ..serial_config
                };
                let fraction = dirty_fraction_pct as f64 / 100.0;
                let (serial, serial_mem) =
                    report_for(engine, pages, fraction, &serial_config);
                let (pipelined, pipelined_mem) =
                    report_for(engine, pages, fraction, &pipelined_config);
                prop_assert_eq!(pipelined, serial);
                prop_assert_eq!(pipelined_mem, serial_mem);
            }
        }
    }
}

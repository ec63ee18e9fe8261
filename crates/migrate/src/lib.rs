//! # rvisor-migrate
//!
//! Live migration engines. Moving a running VM between hosts is the
//! flagship capability that justifies clustered virtualization (maintenance
//! without downtime, load balancing, disaster recovery), and its two key
//! metrics — **downtime** (how long the guest is paused) and **total
//! migration time** — are what experiment E4 sweeps against guest dirty
//! rate, RAM size and link bandwidth.
//!
//! Three engines are provided, mirroring the literature:
//!
//! * [`StopAndCopy`] — pause, copy everything, resume: minimal total time,
//!   worst downtime (∝ RAM size / bandwidth).
//! * [`PreCopy`] — iterative rounds copy memory while the guest runs; each
//!   round copies the pages dirtied during the previous round; when the
//!   dirty set stops shrinking (or a round budget is hit) the guest pauses
//!   for a final short stop-and-copy. Downtime ∝ residual dirty set.
//! * [`PostCopy`] — pause only to move vCPU state, resume on the
//!   destination immediately, and pull pages over the network on demand
//!   (plus a background sweep). Downtime is minimal and constant; the cost
//!   is degraded performance while remote faults are outstanding.
//!
//! The guest's memory-dirtying behaviour during migration is abstracted as a
//! [`DirtySource`], so the benchmarks can sweep dirty rates precisely.
//!
//! Pre-copy transfers can additionally be compressed with zero-page
//! detection and XBZRLE delta encoding (the [`compress`] module), the two
//! techniques production migration stacks use to survive write-heavy guests
//! on thin links.
//!
//! ## One entry point, one reference
//!
//! [`migrate`] is the entry point: it runs the migration a [`MigrationPlan`]
//! describes as a real byte stream across a [`Transport`], in the versioned
//! [`wire`] format — framed page records with compression mode, run-length
//! zero pages, per-frame checksums verified before anything touches the
//! destination, and end-of-round markers. Point the transport at a
//! [`FabricTransport`] and the same migration pays per-host NIC
//! serialization, shared-backbone contention and MTU chunk framing
//! (experiment E17). The protocol is written once, as one phase skeleton
//! per engine in [`protocol`], over one of two data planes:
//!
//! * **serial** (one stream, the [`stream`] module) — encode, deliver and
//!   apply one phase at a time on the calling thread;
//! * **pipelined** (`streams > 1`, the [`pipeline`] module) — encode workers
//!   shard the page-index space into fixed stripes while a dedicated sink
//!   thread applies segments as they arrive over a bounded channel of
//!   recycled buffers. Byte-identical and report-`==` to the serial plane;
//!   the win is host wall-clock overlap on multi-core hosts (experiment
//!   E18). See the [`pipeline`] module docs for what the fair-share
//!   multi-stream network model does and does not capture.
//!
//! The **direct** engines ([`StopAndCopy::migrate`], [`PreCopy::migrate`],
//! [`PostCopy::migrate`], the [`engines`] module) are the reference: a
//! memory-to-memory copy with modelled byte accounting over a
//! [`Link`](rvisor_net::Link), proptest-pinned report-`==` to a loopback
//! stream, and the fast path for benchmarks that sweep thousands of
//! migrations.
//!
//! ## Which plan do I want?
//!
//! [`MigrationConfig`] carries run-level knobs; a [`MigrationPlan`] is the
//! per-migration decision object that [`migrate`] executes
//! (`config.plan(engine)` lowers one into the other). Rules of thumb:
//!
//! | Guest | Plan |
//! |-------|------|
//! | Tiny (fits one stop-the-world copy in the downtime budget) | [`PlanEngine::StopAndCopy`], 1 stream, no compression |
//! | Large, mostly idle, fabric idle | [`PlanEngine::PreCopy`], several streams |
//! | Large, write-heavy, thin link | [`PlanEngine::PreCopy`], [`PageCompression::Xbzrle`], dedicated compressors |
//! | Dirty-hot (pre-copy would never converge) | [`PlanEngine::PostCopy`] + [`FaultService::FaultLane`] |
//! | Don't know / measuring | [`PlanEngine::PreCopy`] defaults — it observes the dirty rate for next time |
//!
//! The `rvisor-orch` `MigrationPlanner` automates exactly this table from
//! observed dirty rate, guest size and fabric occupancy.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod compress;
pub mod dirty;
pub mod engines;
pub mod pipeline;
pub mod plan;
pub mod protocol;
pub mod report;
pub mod stream;
pub mod transport;
pub mod wire;

pub use compress::{CompressionStats, PageCompression, PageCompressor, WirePage};
pub use dirty::{ConstantRateDirtier, DirtySource, IdleDirtier};
pub use engines::{
    sweep_mean_fault_latency, MigrationConfig, PostCopy, PreCopy, StopAndCopy,
    MAX_MIGRATION_STREAMS,
};
pub use plan::{FaultService, MigrationPlan, MigrationPlanBuilder, PlanEngine};
pub use protocol::migrate;
pub use report::{MigrationKind, MigrationReport, RoundStat};
pub use stream::{MigrationSink, MigrationSource};
pub use transport::{FabricTransport, LoopbackTransport, Transport};

//! Per-migration decision objects: [`MigrationPlan`] and its validating
//! builder.
//!
//! [`MigrationConfig`] is a *run-level* knob set: one stream count, one
//! compression mode applied to every migration a caller starts. A
//! [`MigrationPlan`] is the *per-migration* decision an adaptive control
//! plane makes: which engine this particular VM rides, how many streams it
//! gets, how its demand faults are serviced. [`migrate`](crate::migrate)
//! executes a plan; a config [lowers into one](MigrationConfig::plan) for a
//! chosen engine, and a plan [lowers back into a
//! config](MigrationPlan::config) for the direct engines.
//!
//! [`MigrationPlan::builder`] runs [`MigrationPlan::validate`] once on
//! `build()`; plans assembled from the public fields are validated by
//! [`migrate`](crate::migrate) on entry instead.

use std::num::NonZeroUsize;

use rvisor_types::{Error, Result};

use crate::compress::PageCompression;
use crate::engines::{MigrationConfig, MAX_MIGRATION_STREAMS};

/// Which engine a [`MigrationPlan`] selects.
///
/// Deliberately *not* the report-side [`MigrationKind`](crate::MigrationKind):
/// a plan is an input (what we decided to do), a kind is an observation
/// (what the report says happened). Keeping them separate lets either grow
/// without entangling the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanEngine {
    /// Pause, copy everything, resume (cold migration).
    StopAndCopy,
    /// Iterative pre-copy (the default live migration).
    #[default]
    PreCopy,
    /// Post-copy with demand paging.
    PostCopy,
}

impl PlanEngine {
    /// Stable lowercase label (trace args, report tables).
    pub fn name(&self) -> &'static str {
        match self {
            PlanEngine::StopAndCopy => "stop-and-copy",
            PlanEngine::PreCopy => "pre-copy",
            PlanEngine::PostCopy => "post-copy",
        }
    }
}

/// How a post-copy migration services its demand faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultService {
    /// Faulted pages wait for the background sweep to reach them; each
    /// fault additionally serializes one propagation delay behind its
    /// predecessors (the proptest-pinned reference discipline).
    #[default]
    Sweep,
    /// Faulted pages ride a dedicated stream that overtakes the background
    /// sweep: they are encoded and delivered *first*, and no per-fault
    /// serialization penalty accrues. The lane is the second stream, so
    /// [`migrate`](crate::migrate) always runs it on the serial data plane.
    FaultLane,
}

impl FaultService {
    /// Stable lowercase label (trace args, report tables).
    pub fn name(&self) -> &'static str {
        match self {
            FaultService::Sweep => "sweep",
            FaultService::FaultLane => "fault-lane",
        }
    }
}

/// The full decision for one migration: engine, data-plane shape, and
/// fault-service policy.
///
/// # Which plan do I want?
///
/// | Guest | Plan | Why |
/// |---|---|---|
/// | Tiny, or already paused | [`PlanEngine::StopAndCopy`] | The full copy is cheap; no rounds, no fault tail |
/// | Default live migration | [`PlanEngine::PreCopy`] | Downtime is only the residual dirty set |
/// | Big guest, idle fabric | [`PlanEngine::PreCopy`] + [`streams`](MigrationPlan::streams) > 1 | Stripes ECMP-spread over idle spine paths |
/// | Write-heavy (pre-copy cannot converge) | [`PlanEngine::PostCopy`] | Downtime is the vCPU state only |
/// | Write-heavy *and* latency-sensitive | [`PlanEngine::PostCopy`] + [`FaultService::FaultLane`] | Faulted pages overtake the sweep; no serialization tail |
/// | Sparse or duplicate-heavy memory | any + [`PageCompression`] | Zero runs / XBZRLE deltas shrink bytes on wire |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPlan {
    /// Which engine this migration rides.
    pub engine: PlanEngine,
    /// Parallel streams for the pipelined data plane (at most
    /// [`MAX_MIGRATION_STREAMS`]); 1 selects the serial data plane.
    pub streams: NonZeroUsize,
    /// Page compression crossing the wire.
    pub compression: PageCompression,
    /// XBZRLE delta-cache capacity in pages (see
    /// [`MigrationConfig::xbzrle_cache_pages`]).
    pub xbzrle_cache_pages: usize,
    /// Compression-stage workers for the pipelined data plane, decoupled
    /// from [`streams`](Self::streams) so encode bandwidth and compressor
    /// bandwidth scale independently; `None` matches the stream count (the
    /// pre-plan behaviour). The wire bytes are identical for any worker
    /// count — this knob only changes host wall-clock.
    pub compressors: Option<NonZeroUsize>,
    /// How post-copy demand faults are serviced (ignored by the other
    /// engines).
    pub fault_service: FaultService,
    /// Pre-copy round budget (see [`MigrationConfig::max_rounds`]).
    pub max_rounds: u32,
    /// Pre-copy convergence threshold in pages (see
    /// [`MigrationConfig::dirty_page_threshold`]).
    pub dirty_page_threshold: u64,
    /// Post-copy demand-faulted fraction (see
    /// [`MigrationConfig::postcopy_fault_fraction`]).
    pub postcopy_fault_fraction: f64,
}

impl Default for MigrationPlan {
    fn default() -> Self {
        MigrationConfig::default().plan(PlanEngine::default())
    }
}

impl MigrationPlan {
    /// A validating builder seeded with the default plan for `engine`.
    pub fn builder(engine: PlanEngine) -> MigrationPlanBuilder {
        MigrationPlanBuilder {
            plan: MigrationConfig::default().plan(engine),
        }
    }

    /// Lower the plan into the run-level knob set the direct engines take.
    /// The engine choice and fault-service policy do not survive the
    /// lowering — they are dispatch, not knobs.
    pub fn config(&self) -> MigrationConfig {
        MigrationConfig {
            max_rounds: self.max_rounds,
            dirty_page_threshold: self.dirty_page_threshold,
            postcopy_fault_fraction: self.postcopy_fault_fraction,
            compression: self.compression,
            xbzrle_cache_pages: self.xbzrle_cache_pages,
            streams: self.streams,
        }
    }

    /// Compression-stage worker count for the pipelined data plane:
    /// [`compressors`](Self::compressors), defaulting to the stream count.
    pub fn compressor_workers(&self) -> NonZeroUsize {
        self.compressors.unwrap_or(self.streams)
    }

    /// Validate the plan. Checks every lowered config invariant
    /// ([`MigrationConfig::validate`]) plus the plan-only knobs.
    pub fn validate(&self) -> Result<()> {
        self.config().validate()?;
        if let Some(c) = self.compressors {
            if c.get() > MAX_MIGRATION_STREAMS {
                return Err(Error::Migration(format!(
                    "compressors must be at most {MAX_MIGRATION_STREAMS}, got {c}"
                )));
            }
        }
        Ok(())
    }
}

impl MigrationConfig {
    /// Lower this run-level config into a per-migration plan riding
    /// `engine`. Plan-only knobs take their defaults (sweep-ordered fault
    /// service, compressors matching the stream count), so a lowered plan
    /// behaves exactly like the config did before plans existed.
    pub fn plan(&self, engine: PlanEngine) -> MigrationPlan {
        MigrationPlan {
            engine,
            streams: self.streams,
            compression: self.compression,
            xbzrle_cache_pages: self.xbzrle_cache_pages,
            compressors: None,
            fault_service: FaultService::Sweep,
            max_rounds: self.max_rounds,
            dirty_page_threshold: self.dirty_page_threshold,
            postcopy_fault_fraction: self.postcopy_fault_fraction,
        }
    }
}

/// Builder for [`MigrationPlan`]; [`build`](Self::build) runs
/// [`MigrationPlan::validate`] once.
#[derive(Debug, Clone)]
pub struct MigrationPlanBuilder {
    plan: MigrationPlan,
}

impl MigrationPlanBuilder {
    /// Set [`MigrationPlan::streams`].
    pub fn streams(mut self, streams: NonZeroUsize) -> Self {
        self.plan.streams = streams;
        self
    }

    /// Set [`MigrationPlan::compression`].
    pub fn compression(mut self, compression: PageCompression) -> Self {
        self.plan.compression = compression;
        self
    }

    /// Set [`MigrationPlan::xbzrle_cache_pages`].
    pub fn xbzrle_cache_pages(mut self, pages: usize) -> Self {
        self.plan.xbzrle_cache_pages = pages;
        self
    }

    /// Set [`MigrationPlan::compressors`].
    pub fn compressors(mut self, compressors: NonZeroUsize) -> Self {
        self.plan.compressors = Some(compressors);
        self
    }

    /// Set [`MigrationPlan::fault_service`].
    pub fn fault_service(mut self, service: FaultService) -> Self {
        self.plan.fault_service = service;
        self
    }

    /// Set [`MigrationPlan::max_rounds`].
    pub fn max_rounds(mut self, rounds: u32) -> Self {
        self.plan.max_rounds = rounds;
        self
    }

    /// Set [`MigrationPlan::dirty_page_threshold`].
    pub fn dirty_page_threshold(mut self, pages: u64) -> Self {
        self.plan.dirty_page_threshold = pages;
        self
    }

    /// Set [`MigrationPlan::postcopy_fault_fraction`].
    pub fn postcopy_fault_fraction(mut self, fraction: f64) -> Self {
        self.plan.postcopy_fault_fraction = fraction;
        self
    }

    /// Validate and return the plan.
    pub fn build(self) -> Result<MigrationPlan> {
        self.plan.validate()?;
        Ok(self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_lowers_into_a_plan_and_back_without_loss() {
        let config = MigrationConfig {
            max_rounds: 7,
            dirty_page_threshold: 12,
            compression: PageCompression::Xbzrle,
            xbzrle_cache_pages: 99,
            streams: NonZeroUsize::new(4).unwrap(),
            ..Default::default()
        };
        for engine in [
            PlanEngine::StopAndCopy,
            PlanEngine::PreCopy,
            PlanEngine::PostCopy,
        ] {
            let plan = config.plan(engine);
            assert_eq!(plan.engine, engine);
            assert_eq!(plan.fault_service, FaultService::Sweep);
            assert_eq!(plan.compressor_workers().get(), 4);
            let lowered = plan.config();
            assert_eq!(lowered.max_rounds, config.max_rounds);
            assert_eq!(lowered.dirty_page_threshold, config.dirty_page_threshold);
            assert_eq!(lowered.compression, config.compression);
            assert_eq!(lowered.xbzrle_cache_pages, config.xbzrle_cache_pages);
            assert_eq!(lowered.streams, config.streams);
        }
    }

    #[test]
    fn plan_builder_validates_once_and_rejects_bad_knobs() {
        let plan = MigrationPlan::builder(PlanEngine::PostCopy)
            .streams(NonZeroUsize::new(2).unwrap())
            .compressors(NonZeroUsize::new(8).unwrap())
            .fault_service(FaultService::FaultLane)
            .postcopy_fault_fraction(0.5)
            .build()
            .unwrap();
        assert_eq!(plan.engine, PlanEngine::PostCopy);
        assert_eq!(plan.fault_service, FaultService::FaultLane);
        assert_eq!(plan.compressor_workers().get(), 8);
        // Every knob `MigrationConfig::validate` guards, plus the plan-only
        // compressor bound.
        let too_many = NonZeroUsize::new(MAX_MIGRATION_STREAMS + 1).unwrap();
        let rejected = [
            MigrationPlan::builder(PlanEngine::PreCopy).postcopy_fault_fraction(-0.1),
            MigrationPlan::builder(PlanEngine::PreCopy).postcopy_fault_fraction(1.5),
            MigrationPlan::builder(PlanEngine::PreCopy).postcopy_fault_fraction(f64::NAN),
            MigrationPlan::builder(PlanEngine::PreCopy).compressors(too_many),
            MigrationPlan::builder(PlanEngine::PreCopy).streams(too_many),
            MigrationPlan::builder(PlanEngine::PreCopy).max_rounds(0),
            MigrationPlan::builder(PlanEngine::PreCopy)
                .compression(PageCompression::Xbzrle)
                .xbzrle_cache_pages(0),
        ];
        for builder in rejected {
            assert!(
                builder.clone().build().is_err(),
                "{builder:?} must be rejected"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PlanEngine::StopAndCopy.name(), "stop-and-copy");
        assert_eq!(PlanEngine::PreCopy.name(), "pre-copy");
        assert_eq!(PlanEngine::PostCopy.name(), "post-copy");
        assert_eq!(FaultService::Sweep.name(), "sweep");
        assert_eq!(FaultService::FaultLane.name(), "fault-lane");
    }

    #[test]
    fn default_plan_matches_default_config() {
        let plan = MigrationPlan::default();
        assert_eq!(plan.engine, PlanEngine::PreCopy);
        let config = MigrationConfig::default();
        assert_eq!(plan.max_rounds, config.max_rounds);
        assert_eq!(plan.streams, config.streams);
        plan.validate().unwrap();
    }
}

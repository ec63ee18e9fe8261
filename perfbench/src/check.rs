//! Correctness checks on one simulated day.
//!
//! A day counts as failed when it returns `Err`, when its report differs
//! from the run's first report for the same scenario, when a traced day's
//! report differs from the untraced one, or when the report (or the
//! trace's counters) breaks a conservation identity below.

use rvisor_orch::{OrchReport, Scenario};

use crate::sink::DayTally;

/// Why a day failed, or `Ok` when every identity holds.
pub fn conservation(report: &OrchReport, scenario: &Scenario) -> Result<(), String> {
    let (arrivals, _, _, failures) = scenario.census();
    let r = report;
    let mut broken = Vec::new();
    if r.vms_arrived != arrivals as u64 {
        broken.push(format!(
            "vms_arrived {} != census arrivals {arrivals}",
            r.vms_arrived
        ));
    }
    if r.vms_placed + r.placements_unmet != r.vms_arrived {
        broken.push(format!(
            "vms_placed {} + placements_unmet {} != vms_arrived {}",
            r.vms_placed, r.placements_unmet, r.vms_arrived
        ));
    }
    if r.hosts_failed != failures as u64 {
        broken.push(format!(
            "hosts_failed {} != census failures {failures}",
            r.hosts_failed
        ));
    }
    if r.migrations_completed + r.migrations_skipped != r.migrations_planned {
        broken.push(format!(
            "migrations completed {} + skipped {} != planned {}",
            r.migrations_completed, r.migrations_skipped, r.migrations_planned
        ));
    }
    // Every failure casualty ends restored, lost, or departed mid-restore.
    let settled = r.vms_restored + r.vms_lost_permanently;
    if settled > r.vms_lost_at_failure || r.vms_lost_at_failure > settled + r.vms_departed {
        broken.push(format!(
            "failure casualties {} do not match restored {} + lost {} (+ departed {})",
            r.vms_lost_at_failure, r.vms_restored, r.vms_lost_permanently, r.vms_departed
        ));
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("; "))
    }
}

/// The traced day's counters must equal the report fields they mirror.
pub fn trace_matches(report: &OrchReport, tally: &DayTally) -> Result<(), String> {
    let pairs = [
        ("backups", tally.backups, report.backups_taken),
        ("migrations", tally.migrations, report.migrations_completed),
        ("restores", tally.restores, report.vms_restored),
        (
            "policy.decisions",
            tally.policy_decisions,
            report.migrations_planned,
        ),
        (
            "planner.decisions",
            tally.planner_decisions,
            report.planner_decisions,
        ),
        (
            "cas.chunks_shipped",
            tally.cas_chunks_shipped,
            report.backup_chunks_shipped,
        ),
        (
            "cas.chunks_deduped",
            tally.cas_chunks_deduped,
            report.backup_chunks_deduped,
        ),
    ];
    let broken: Vec<String> = pairs
        .iter()
        .filter(|(_, traced, reported)| traced != reported)
        .map(|(name, traced, reported)| format!("trace {name} {traced} != report {reported}"))
        .collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("; "))
    }
}

/// All checks on one day's report: identities, and equality with the
/// reference report for the same scenario when there is one.
pub fn day(
    report: &OrchReport,
    scenario: &Scenario,
    reference: Option<&OrchReport>,
) -> Result<(), String> {
    if let Some(first) = reference {
        if report != first {
            return Err("report differs from the first report of the same scenario".into());
        }
    }
    conservation(report, scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_orch::{
        run_datacenter, OrchParams, ScenarioConfig, ThresholdRebalance, WorkloadShape,
    };

    fn small_day() -> (Scenario, OrchReport) {
        let scenario = Scenario::generate(
            ScenarioConfig::day(7, WorkloadShape::SteadyState, 4, 40).with_host_failures(1),
        )
        .unwrap();
        let report = run_datacenter(
            4,
            OrchParams::default(),
            Box::new(ThresholdRebalance),
            &scenario,
        )
        .unwrap();
        (scenario, report)
    }

    #[test]
    fn a_genuine_day_passes() {
        let (scenario, report) = small_day();
        assert_eq!(day(&report, &scenario, Some(&report.clone())), Ok(()));
    }

    #[test]
    fn a_doctored_report_is_flagged() {
        let (scenario, report) = small_day();
        let mut doctored = report.clone();
        doctored.vms_placed += 1;
        assert!(conservation(&doctored, &scenario).is_err());
        let mut doctored = report.clone();
        doctored.migrations_skipped += 1;
        assert!(conservation(&doctored, &scenario).is_err());
        let mut doctored = report.clone();
        doctored.hosts_failed = 0;
        assert!(conservation(&doctored, &scenario).is_err());
    }

    #[test]
    fn a_report_that_differs_from_its_replay_is_flagged() {
        let (scenario, report) = small_day();
        let mut replay = report.clone();
        replay.backup_bytes += 1;
        assert!(conservation(&replay, &scenario).is_ok());
        assert!(day(&replay, &scenario, Some(&report)).is_err());
    }

    #[test]
    fn trace_counters_must_match_the_report() {
        let (_, report) = small_day();
        let tally = DayTally {
            backups: report.backups_taken,
            migrations: report.migrations_completed,
            restores: report.vms_restored,
            policy_decisions: report.migrations_planned,
            ..DayTally::default()
        };
        assert_eq!(trace_matches(&report, &tally), Ok(()));
        let short = DayTally {
            backups: report.backups_taken.saturating_sub(1),
            ..tally
        };
        assert!(
            report.backups_taken > 0,
            "the small day takes hourly backups"
        );
        assert!(trace_matches(&report, &short).is_err());
    }
}

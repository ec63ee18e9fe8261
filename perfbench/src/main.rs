//! `perfbench` — the simulated-day benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload dr_dedup_day --seed 0 --seconds 20 --trace 0
//! ```
//!
//! A run set-ups and simulates whole days of one workload (see
//! `workloads.rs` and `perfbench/README.md`) for `--seconds`, checks every
//! day, and prints one JSON object as the last line of stdout:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from traced
//! days paired with untraced ones plus the layer probes. A human-readable
//! copy goes to stderr.

mod alloc;
mod check;
mod probes;
mod sink;
mod workloads;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rvisor_obs::Trace;
use rvisor_orch::{OrchReport, Orchestrator, Scenario};
use rvisor_types::Result;

use crate::sink::{DayTally, HostClockSink, EVENT_KINDS};
use crate::workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const MIB: f64 = 1024.0 * 1024.0;
/// Fewest set-up samples per run; cheap days add extra set-ups.
const MIN_SETUPS: usize = 11;
/// Share of a traced run spent on traced/untraced day pairs; the rest
/// goes to the layer probes.
const TRACED_SHARE: f64 = 0.6;

/// End-to-end metrics, in `BENCHMARK.json` order: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("day_wall_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("sim_backup_mib", "MiB"),
    ("sim_placement_latency_avg_ms", "sim_ms"),
    ("sim_hosts_powered_avg", "hosts"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: (name, unit).
const PER_LAYER: [(&str, &str); 52] = [
    ("orch.backup_tick.host_s", "s"),
    ("orch.backup_tick.count", "count"),
    ("orch.rebalance_tick.host_s", "s"),
    ("orch.rebalance_tick.count", "count"),
    ("orch.load_change.host_s", "s"),
    ("orch.load_change.count", "count"),
    ("orch.vm_arrival.host_s", "s"),
    ("orch.vm_arrival.count", "count"),
    ("orch.vm_departure.host_s", "s"),
    ("orch.vm_departure.count", "count"),
    ("orch.host_failure.host_s", "s"),
    ("orch.host_failure.count", "count"),
    ("orch.restore_complete.host_s", "s"),
    ("orch.restore_complete.count", "count"),
    ("orch.events", "count"),
    ("orch.host_ns_per_event", "ns"),
    ("orch.unattributed_pct", "%"),
    ("orch.heap_allocs", "count"),
    ("orch.heap_mib", "MiB"),
    ("orch.event_queue_push_pop_ns", "ns"),
    ("orch.choose_host_ns", "ns"),
    ("orch.policy_plan_us", "us"),
    ("orch.policy_decisions", "count"),
    ("orch.planner_decisions", "count"),
    ("net.transfers", "count"),
    ("net.striped_transfers", "count"),
    ("net.wire_mib", "MiB"),
    ("net.framing_ratio", "ratio"),
    ("net.transfer_ns", "ns"),
    ("net.striped_transfer_ns", "ns"),
    ("net.sim_fabric_wait_ms", "sim_ms"),
    ("snapshot.backups", "count"),
    ("snapshot.restores", "count"),
    ("snapshot.backup_us", "us"),
    ("snapshot.backup_dedup_us", "us"),
    ("snapshot.cas_ingest_us", "us"),
    ("snapshot.cas_chunks_shipped", "count"),
    ("snapshot.cas_chunks_deduped", "count"),
    ("snapshot.cas_dedup_ratio", "ratio"),
    ("snapshot.sim_backup_lag_ms", "sim_ms"),
    ("snapshot.sim_vm_time_lost_s", "sim_s"),
    ("migrate.migrations", "count"),
    ("migrate.rounds", "count"),
    ("migrate.mib", "MiB"),
    ("migrate.skipped_ratio", "ratio"),
    ("migrate.sim_downtime_avg_us", "sim_us"),
    ("migrate.sim_time_avg_ms", "sim_ms"),
    ("migrate.migrate_planned_us", "us"),
    ("migrate.wire_encode_mib_s", "MiB/s"),
    ("migrate.wire_apply_mib_s", "MiB/s"),
    ("memory.harvest_copy_mib_s", "MiB/s"),
    ("obs.trace_overhead_pct", "%"),
];

/// Parsed command line.
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_cli() -> std::result::Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(Duration::from_secs(20)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.trace {
        traced_run(&cli)
    } else {
        end_to_end_run(&cli)
    };
    match outcome {
        Ok(out) => {
            out.print_human(&cli);
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run prints.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                // JSON has no NaN or infinity; a metric that could not be
                // measured reads 0 and the run is marked incorrect.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.2.is_finite())
    }

    fn print_human(&self, cli: &Cli) {
        eprintln!(
            "{} seed {} ({} mode): {} days attempted, {} failed",
            cli.workload.name,
            cli.seed,
            if cli.trace { "traced" } else { "end-to-end" },
            self.attempted,
            self.failed
        );
        for note in &self.notes {
            eprintln!("  {note}");
        }
        for (name, unit, v) in &self.metrics {
            eprintln!("  {name:<36} {v:>16.6} {unit}");
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Generate one day's scenario and build its orchestrator; returns both
/// and the set-up time in seconds.
fn set_up(w: &Workload, scenario_seed: u64) -> Result<(Scenario, Orchestrator, f64)> {
    let t = Instant::now();
    let scenario = w.scenario(scenario_seed)?;
    let orch = w.orchestrator()?;
    Ok((scenario, orch, t.elapsed().as_secs_f64()))
}

/// Counts attempted and failed days and keeps each scenario's first
/// report, against which every later day of that scenario is checked.
struct Ledger {
    attempted: u64,
    failed: u64,
    firsts: Vec<Option<OrchReport>>,
}

impl Ledger {
    fn new(scenarios: usize) -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            firsts: vec![None; scenarios],
        }
    }

    /// Record one day of scenario `j`; returns the report if the day passed.
    fn record(
        &mut self,
        j: usize,
        scenario: &Scenario,
        outcome: Result<OrchReport>,
        extra: impl FnOnce(&OrchReport) -> std::result::Result<(), String>,
    ) -> Option<OrchReport> {
        self.attempted += 1;
        let checked = outcome.map_err(|e| e.to_string()).and_then(|r| {
            check::day(&r, scenario, self.firsts[j].as_ref())?;
            extra(&r)?;
            Ok(r)
        });
        match checked {
            Ok(r) => {
                self.firsts[j].get_or_insert_with(|| r.clone());
                Some(r)
            }
            Err(e) => {
                eprintln!("perfbench: day of scenario {j} failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// The mean over scenarios of each scenario's median sample, so every
/// scenario weighs the same however often it ran. A mean, not a median,
/// across scenarios: the DR days' costs fall into two clusters by seed,
/// and a median over a handful of scenarios jumps between them.
fn mean_of_medians(per_scenario: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_scenario
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v.clone()))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Tracing off: one pass over the run's scenarios, then replays (from
/// the first scenario on) until `--seconds` have passed and at least one
/// scenario has replayed. Every day is set up from scratch.
fn end_to_end_run(cli: &Cli) -> Result<Outcome> {
    let w = &cli.workload;
    let seeds = w.scenario_seeds(cli.seed);
    let mut ledger = Ledger::new(seeds.len());
    let mut setups = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut heaps: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let start = Instant::now();
    let mut days = 0;
    while days <= seeds.len() || start.elapsed() < cli.seconds {
        let j = days % seeds.len();
        days += 1;
        let base = alloc::reset_peak();
        let (scenario, orch, setup) = set_up(w, seeds[j])?;
        setups.push(setup);
        let untraced = day(orch, false, &scenario);
        let heap = alloc::peak().saturating_sub(base) as f64 / MIB;
        if ledger
            .record(j, &scenario, untraced.outcome, |_| Ok(()))
            .is_some()
        {
            walls[j].push(untraced.wall);
            heaps[j].push(heap);
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(set_up(w, seeds[setups.len() % seeds.len()])?.2);
    }

    let firsts: Vec<&OrchReport> = ledger.firsts.iter().flatten().collect();
    let n = firsts.len() as f64;
    let mean = |f: &dyn Fn(&OrchReport) -> f64| firsts.iter().map(|r| f(r)).sum::<f64>() / n;
    let values = [
        median(setups.clone()),
        mean_of_medians(&walls),
        mean_of_medians(&heaps),
        mean(&|r| r.backup_bytes as f64 / MIB),
        mean(&|r| r.placement_latency_avg().as_nanos() as f64 / 1e6),
        mean(&|r| r.avg_hosts_powered()),
    ];
    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        notes: vec![format!(
            "{days} days over {} scenarios; day_wall_s and peak_heap_mib are means over \
             scenarios of each scenario's median day, setup_s the median of {} set-ups",
            seeds.len(),
            setups.len()
        )],
    })
}

/// One day run by [`day`].
struct Day {
    outcome: Result<OrchReport>,
    wall: f64,
    tally: DayTally,
    allocs: u64,
    alloc_bytes: u64,
}

/// Run one day, traced through a [`HostClockSink`] or untraced; the
/// allocation counters run only on traced days.
fn day(mut orch: Orchestrator, traced: bool, scenario: &Scenario) -> Day {
    if !traced {
        let t = Instant::now();
        let outcome = orch.run(scenario);
        return Day {
            outcome,
            wall: t.elapsed().as_secs_f64(),
            tally: DayTally::default(),
            allocs: 0,
            alloc_bytes: 0,
        };
    }
    let sink = Rc::new(RefCell::new(HostClockSink::new()));
    orch.set_trace(Trace::to(sink.clone()));
    let t = Instant::now();
    let (outcome, allocs, alloc_bytes) = alloc::counted(|| orch.run(scenario));
    let end = Instant::now();
    let tally = sink.borrow_mut().finish(end);
    Day {
        outcome,
        wall: end.duration_since(t).as_secs_f64(),
        tally,
        allocs,
        alloc_bytes,
    }
}

/// One traced day's measurements.
struct TracedDay {
    report: OrchReport,
    tally: DayTally,
    wall: f64,
    untraced_wall: f64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Tracing on: pairs of untraced and traced days of each scenario for
/// [`TRACED_SHARE`] of `--seconds` (at least one pass), then the layer
/// probes for the rest.
fn traced_run(cli: &Cli) -> Result<Outcome> {
    let w = &cli.workload;
    let mut seeds = w.scenario_seeds(cli.seed);
    seeds.truncate(w.traced_scenarios);
    let mut ledger = Ledger::new(seeds.len());
    let mut days: Vec<TracedDay> = Vec::new();
    let start = Instant::now();
    let traced_budget = cli.seconds.mul_f64(TRACED_SHARE);
    let mut pass = 0;
    while pass == 0 || start.elapsed() < traced_budget {
        for (j, &seed) in seeds.iter().enumerate() {
            // Alternate which of the pair runs first, so neither side is
            // always the one paying for a cold heap.
            let untraced_first = (pass + j) % 2 == 0;
            let run_one = |traced: bool| -> Result<(Scenario, Day)> {
                let (scenario, orch, _) = set_up(w, seed)?;
                let d = day(orch, traced, &scenario);
                Ok((scenario, d))
            };
            let first = run_one(!untraced_first)?;
            let second = run_one(untraced_first)?;
            let ((scenario, untraced), (_, traced)) = if untraced_first {
                (first, second)
            } else {
                (second, first)
            };
            let untraced_wall = untraced.wall;
            let reference = ledger.record(j, &scenario, untraced.outcome, |_| Ok(()));
            let tally = traced.tally;
            let report = ledger.record(j, &scenario, traced.outcome, |r| {
                if reference.as_ref() != Some(r) {
                    return Err("traced report differs from the untraced report".into());
                }
                check::trace_matches(r, &tally)
            });
            if let Some(report) = report {
                days.push(TracedDay {
                    report,
                    tally,
                    wall: traced.wall,
                    untraced_wall,
                    allocs: traced.allocs,
                    alloc_bytes: traced.alloc_bytes,
                });
            }
        }
        pass += 1;
    }

    let probe_budget = cli
        .seconds
        .saturating_sub(start.elapsed())
        .max(cli.seconds.mul_f64(1.0 - TRACED_SHARE));
    let day_events = days.first().map_or(1, |d| d.report.events_processed);
    let scenario = w.scenario(seeds[0])?;

    let n = days.len() as f64;
    let sum = |f: &dyn Fn(&TracedDay) -> f64| days.iter().map(f).sum::<f64>();
    let per_day = |f: &dyn Fn(&TracedDay) -> f64| sum(f) / n;
    let mut values: BTreeMap<String, f64> = probes::Bed::new(*w, &scenario, day_events)?
        .run(probe_budget)?
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    for (k, kind) in EVENT_KINDS.iter().enumerate() {
        let key = kind.replace('-', "_");
        values.insert(
            format!("orch.{key}.host_s"),
            per_day(&|d| d.tally.host_ns[k] as f64 / 1e9),
        );
        values.insert(
            format!("orch.{key}.count"),
            per_day(&|d| d.tally.count[k] as f64),
        );
    }
    let traced_wall = sum(&|d| d.wall);
    let untraced_wall = sum(&|d| d.untraced_wall);
    let attributed = sum(&|d| d.tally.attributed_ns() as f64 / 1e9);
    let events = sum(&|d| d.tally.events() as f64);
    let migrations_done = sum(&|d| d.report.migrations_completed as f64);
    let derived: [(&str, f64); 26] = [
        ("orch.events", events / n),
        ("orch.host_ns_per_event", ratio(untraced_wall * 1e9, events)),
        (
            "orch.unattributed_pct",
            100.0 * ratio(traced_wall - attributed, traced_wall),
        ),
        ("orch.heap_allocs", per_day(&|d| d.allocs as f64)),
        ("orch.heap_mib", per_day(&|d| d.alloc_bytes as f64 / MIB)),
        (
            "orch.policy_decisions",
            per_day(&|d| d.tally.policy_decisions as f64),
        ),
        (
            "orch.planner_decisions",
            per_day(&|d| d.tally.planner_decisions as f64),
        ),
        (
            "net.transfers",
            per_day(&|d| d.tally.fabric_transfers as f64),
        ),
        (
            "net.striped_transfers",
            per_day(&|d| d.tally.fabric_striped_transfers as f64),
        ),
        (
            "net.wire_mib",
            per_day(&|d| d.tally.fabric_wire_bytes as f64 / MIB),
        ),
        (
            "net.framing_ratio",
            ratio(
                sum(&|d| d.tally.fabric_wire_bytes as f64),
                sum(&|d| d.tally.fabric_payload_bytes as f64),
            ),
        ),
        (
            "net.sim_fabric_wait_ms",
            per_day(&|d| d.tally.fabric_wait_ns as f64 / 1e6),
        ),
        ("snapshot.backups", per_day(&|d| d.tally.backups as f64)),
        ("snapshot.restores", per_day(&|d| d.tally.restores as f64)),
        (
            "snapshot.cas_chunks_shipped",
            per_day(&|d| d.tally.cas_chunks_shipped as f64),
        ),
        (
            "snapshot.cas_chunks_deduped",
            per_day(&|d| d.tally.cas_chunks_deduped as f64),
        ),
        (
            "snapshot.cas_dedup_ratio",
            ratio(
                sum(&|d| d.tally.cas_chunks_deduped as f64),
                sum(&|d| (d.tally.cas_chunks_deduped + d.tally.cas_chunks_shipped) as f64),
            ),
        ),
        (
            "snapshot.sim_backup_lag_ms",
            ratio(
                sum(&|d| d.tally.backup_lag_ns as f64 / 1e6),
                sum(&|d| d.tally.backups as f64),
            ),
        ),
        (
            "snapshot.sim_vm_time_lost_s",
            per_day(&|d| d.report.vm_time_lost.as_nanos() as f64 / 1e9),
        ),
        (
            "migrate.migrations",
            per_day(&|d| d.tally.migrations as f64),
        ),
        (
            "migrate.rounds",
            per_day(&|d| d.tally.migration_rounds as f64),
        ),
        (
            "migrate.mib",
            per_day(&|d| d.report.migration_bytes as f64 / MIB),
        ),
        (
            "migrate.skipped_ratio",
            ratio(
                sum(&|d| d.report.migrations_skipped as f64),
                sum(&|d| d.report.migrations_planned as f64),
            ),
        ),
        (
            "migrate.sim_downtime_avg_us",
            ratio(
                sum(&|d| d.report.migration_downtime_total.as_nanos() as f64 / 1e3),
                migrations_done,
            ),
        ),
        (
            "migrate.sim_time_avg_ms",
            ratio(
                sum(&|d| d.report.migration_time_total.as_nanos() as f64 / 1e6),
                migrations_done,
            ),
        ),
        (
            "obs.trace_overhead_pct",
            100.0 * (ratio(traced_wall, untraced_wall) - 1.0),
        ),
    ];
    values.extend(derived.map(|(name, v)| (name.to_string(), v)));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.remove(name).unwrap_or(f64::NAN);
            (name, unit, v)
        })
        .collect();
    let kinds_share: Vec<String> = EVENT_KINDS
        .iter()
        .enumerate()
        .map(|(k, kind)| {
            let share = sum(&|d| d.tally.host_ns[k] as f64 / 1e9);
            format!("{kind} {:.1}%", 100.0 * ratio(share, traced_wall))
        })
        .collect();
    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes: vec![
            format!(
                "{} traced days, traced wall {traced_wall:.3} s vs untraced {untraced_wall:.3} s",
                days.len()
            ),
            format!("host-time shares: {}", kinds_share.join(", ")),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = spec.matches("\"name\"").count();
        assert_eq!(
            names,
            workloads::all().len() + END_TO_END.len() + PER_LAYER.len()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in workloads::all() {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name)));
        }
    }
}

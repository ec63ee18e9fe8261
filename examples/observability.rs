//! E20 — the observability plane over the E15 datacenter day.
//!
//! Runs the same 32-host, 500-VM diurnal day as the `datacenter` example
//! with a recording trace sink attached to every layer: the orchestrator's
//! event loop and policy decisions, cluster migrations, per-round migration
//! engine sub-spans, fabric transfers and DR backups. Then it proves the
//! three properties the plane guarantees:
//!
//! 1. **Tracing observes, never steers** — the traced day's `OrchReport`
//!    is `==`-equal to the untraced day's.
//! 2. **Traces are deterministic** — two same-seed traced runs emit
//!    byte-identical Chrome trace JSON (the CI determinism job re-runs this
//!    example and byte-diffs both stdout and the exported trace file).
//! 3. **The export is loadable** — the Chrome trace-event JSON parses as
//!    valid JSON and carries at least one event per migration, backup and
//!    rebalance decision.
//!
//! The exported trace (`target/observability_trace.json`) drops straight
//! into Perfetto / `chrome://tracing`.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use virtlab::cluster::HostSpec;
use virtlab::obs::{
    chrome_trace_json, validate_json, Align, EventKind, Recorder, TextTable, Trace,
};
use virtlab::orch::{
    run_datacenter, OrchParams, OrchReport, Orchestrator, Scenario, ScenarioConfig,
    ThresholdRebalance, WorkloadShape,
};
use virtlab::types::HostId;

const HOSTS: usize = 32;
const VM_ARRIVALS: usize = 500;
const SEED: u64 = 0xDC;

fn scenario() -> Scenario {
    Scenario::generate(
        ScenarioConfig::day(SEED, WorkloadShape::DiurnalWave, HOSTS, VM_ARRIVALS)
            .with_host_failures(2),
    )
    .expect("scenario config is valid")
}

/// The day `run_datacenter` runs, with `trace` attached to every layer
/// (event loop, policy decisions, cluster migrations, fabric transfers, DR
/// backups).
fn traced_day(params: OrchParams, scenario: &Scenario, trace: Trace) -> OrchReport {
    let hosts = (0..HOSTS)
        .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
        .collect();
    let mut orch = Orchestrator::new(hosts, params, Box::new(ThresholdRebalance))
        .expect("the parameters are valid");
    orch.set_trace(trace);
    orch.run(scenario)
        .expect("the traced day runs to completion")
}

/// Count recorded events on `track` named `name`.
fn count(recorder: &Recorder, track: &str, name: &str) -> usize {
    recorder
        .events()
        .iter()
        .filter(|e| e.track == track && e.name == name)
        .count()
}

/// Count recorded *spans* (not instants/counters) on `track` named `name`.
fn count_spans(recorder: &Recorder, track: &str, name: &str) -> usize {
    recorder
        .events()
        .iter()
        .filter(|e| e.track == track && e.name == name && matches!(e.kind, EventKind::Span { .. }))
        .count()
}

fn main() {
    let scenario = scenario();
    println!("-- E20: deterministic tracing over the E15 day --\n");

    // Baseline: the untraced day.
    let params = OrchParams::default();
    let untraced = run_datacenter(HOSTS, params, Box::new(ThresholdRebalance), &scenario)
        .expect("the untraced day runs to completion");

    // The same day with a recording sink attached to every layer.
    let (trace, recorder) = Trace::recording();
    let traced = traced_day(params, &scenario, trace);

    // 1. Tracing is a pure observer.
    assert_eq!(
        untraced, traced,
        "a traced day must report exactly what the untraced day reports"
    );
    println!("observer check: traced report == untraced report ✔");

    // 2. Same-seed replays emit byte-identical traces.
    let (replay_trace, replay_recorder) = Trace::recording();
    let replayed = traced_day(params, &scenario, replay_trace);
    assert_eq!(traced, replayed, "same seed must replay identically");
    let json = chrome_trace_json(recorder.borrow().events());
    let replay_json = chrome_trace_json(replay_recorder.borrow().events());
    assert_eq!(
        json, replay_json,
        "same-seed traces must serialize to identical bytes"
    );
    println!("replay check: byte-identical Chrome trace from an identical seed ✔");

    // 3. The export is valid JSON and covers the day's control decisions.
    assert!(
        validate_json(&json),
        "the Chrome trace export must be valid JSON"
    );
    let rec = recorder.borrow();
    let migration_spans = count_spans(&rec, "cluster", "migrate");
    let backup_spans = count_spans(&rec, "dr", "backup");
    let restore_spans = count_spans(&rec, "dr", "restore");
    let decisions = count(&rec, "orch/policy", "decision");
    assert_eq!(
        migration_spans as u64, traced.migrations_completed,
        "one cluster span per completed migration"
    );
    assert_eq!(
        backup_spans as u64, traced.backups_taken,
        "one DR span per backup streamed"
    );
    assert_eq!(
        restore_spans as u64, traced.vms_restored,
        "one DR span per restore"
    );
    assert_eq!(
        decisions as u64, traced.migrations_planned,
        "one policy instant per planned migration"
    );
    assert!(migration_spans >= 1, "the day must migrate at least once");
    assert!(backup_spans >= 1, "the day must back up at least once");
    assert!(decisions >= 1, "the day must decide at least once");
    println!("coverage check: every migration, backup and decision traced ✔\n");

    // What got traced, as one table (the same renderer the metrics exporter
    // uses).
    let mut t = TextTable::new(&[
        ("track/event", Align::Left),
        ("count", Align::Right),
        ("matches", Align::Left),
    ]);
    t.row([
        "cluster/migrate".to_string(),
        migration_spans.to_string(),
        "migrations_completed".to_string(),
    ]);
    t.row([
        "orch/policy decision".to_string(),
        decisions.to_string(),
        "migrations_planned".to_string(),
    ]);
    t.row([
        "dr/backup".to_string(),
        backup_spans.to_string(),
        "backups_taken".to_string(),
    ]);
    t.row([
        "dr/restore".to_string(),
        restore_spans.to_string(),
        "vms_restored".to_string(),
    ]);
    t.row([
        "all events".to_string(),
        rec.events().len().to_string(),
        String::new(),
    ]);
    t.print();

    // The integer-histogram metrics registry, rendered as text.
    println!("\n-- metrics --\n");
    print!("{}", rec.metrics().render_text());

    // Export for Perfetto (and the CI artifact / determinism byte-diff).
    let out = std::path::Path::new("target").join("observability_trace.json");
    std::fs::create_dir_all("target").expect("target directory is writable");
    std::fs::write(&out, &json).expect("trace file is writable");
    println!(
        "\nwrote {} ({} events, {} bytes)",
        out.display(),
        rec.events().len(),
        json.len()
    );
}

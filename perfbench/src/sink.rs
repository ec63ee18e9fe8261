//! The traced run's host-clock attribution sink.
//!
//! [`HostClockSink`] implements [`TraceSink`] and is attached with
//! `Orchestrator::set_trace`. The orchestrator emits one `orch` instant per
//! event-loop event, named after the event kind. At each such instant the
//! sink reads the host clock and charges the time since the previous
//! instant to the previous event kind, so each kind's `host_s` is the host
//! time its handlers took, everything they called included. The benchmark
//! closes the last interval when `Orchestrator::run` returns. Only the
//! queue seeding before the first event is left unattributed.
//!
//! Along the way the sink tallies the counters the layers already emit
//! (`fabric.*`, `backups`, `migrations`, `restores`, `cas.*`, policy and
//! planner decisions), the fabric spans' queue waits and the backup lag
//! samples. Every hook matches its `&'static str` key against a fixed set
//! and adds into a fixed field: no hook allocates.

use std::time::Instant;

use rvisor_obs::{ArgValue, Args, TraceSink};
use rvisor_types::Nanoseconds;

/// The orchestrator's event kinds, as `OrchEvent::kind` names them.
pub const EVENT_KINDS: [&str; 8] = [
    "backup-tick",
    "rebalance-tick",
    "load-change",
    "vm-arrival",
    "vm-departure",
    "host-failure",
    "restore-complete",
    "spine-failure",
];

/// Index of `name` in [`EVENT_KINDS`].
fn kind_index(name: &str) -> Option<usize> {
    EVENT_KINDS.iter().position(|&k| k == name)
}

/// What one traced day charged and counted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayTally {
    /// Host nanoseconds charged to each of [`EVENT_KINDS`].
    pub host_ns: [u64; EVENT_KINDS.len()],
    /// Instants seen for each of [`EVENT_KINDS`].
    pub count: [u64; EVENT_KINDS.len()],
    pub fabric_transfers: u64,
    pub fabric_striped_transfers: u64,
    pub fabric_payload_bytes: u64,
    pub fabric_wire_bytes: u64,
    /// Summed simulated queue wait of every fabric transfer.
    pub fabric_wait_ns: u64,
    pub backups: u64,
    /// Summed simulated submit-to-arrival lag of every backup.
    pub backup_lag_ns: u64,
    pub restores: u64,
    pub migrations: u64,
    pub migration_rounds: u64,
    pub cas_chunks_shipped: u64,
    pub cas_chunks_deduped: u64,
    pub policy_decisions: u64,
    pub planner_decisions: u64,
}

impl DayTally {
    /// Host nanoseconds charged to any event kind.
    pub fn attributed_ns(&self) -> u64 {
        self.host_ns.iter().sum()
    }

    /// Event-kind instants seen.
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }
}

/// A [`TraceSink`] charging host time to event kinds; see the module docs.
#[derive(Debug)]
pub struct HostClockSink {
    tally: DayTally,
    /// The kind whose interval is open, and when it opened.
    open: Option<(usize, Instant)>,
}

impl HostClockSink {
    pub fn new() -> Self {
        HostClockSink {
            tally: DayTally::default(),
            open: None,
        }
    }

    /// Close the open interval at `now` and return the day's tally.
    pub fn finish(&mut self, now: Instant) -> DayTally {
        if let Some((kind, since)) = self.open.take() {
            self.tally.host_ns[kind] += now.duration_since(since).as_nanos() as u64;
        }
        std::mem::take(&mut self.tally)
    }
}

fn arg_u64(args: &Args<'_>, key: &str) -> u64 {
    args.iter()
        .find_map(|&(k, v)| match v {
            ArgValue::U64(n) if k == key => Some(n),
            _ => None,
        })
        .unwrap_or(0)
}

impl TraceSink for HostClockSink {
    fn span(
        &mut self,
        track: &'static str,
        _name: &'static str,
        _start: Nanoseconds,
        _end: Nanoseconds,
        args: &Args<'_>,
    ) {
        match track {
            "fabric" => {
                self.tally.fabric_wait_ns += arg_u64(args, "queue_wait_ns");
                if arg_u64(args, "streams") > 1 {
                    self.tally.fabric_striped_transfers += 1;
                }
            }
            "migrate/round" => self.tally.migration_rounds += 1,
            _ => {}
        }
    }

    fn instant(
        &mut self,
        track: &'static str,
        name: &'static str,
        _at: Nanoseconds,
        _args: &Args<'_>,
    ) {
        if track != "orch" {
            return;
        }
        let Some(kind) = kind_index(name) else {
            return;
        };
        let now = Instant::now();
        if let Some((prev, since)) = self.open {
            self.tally.host_ns[prev] += now.duration_since(since).as_nanos() as u64;
        }
        self.open = Some((kind, now));
        self.tally.count[kind] += 1;
    }

    fn counter(&mut self, _: &'static str, _: &'static str, _: Nanoseconds, _: u64) {}

    fn add(&mut self, counter: &'static str, delta: u64) {
        let t = &mut self.tally;
        match counter {
            "fabric.transfers" => t.fabric_transfers += delta,
            "fabric.payload_bytes" => t.fabric_payload_bytes += delta,
            "fabric.wire_bytes" => t.fabric_wire_bytes += delta,
            "backups" => t.backups += delta,
            "restores" => t.restores += delta,
            "migrations" => t.migrations += delta,
            "cas.chunks_shipped" => t.cas_chunks_shipped += delta,
            "cas.chunks_deduped" => t.cas_chunks_deduped += delta,
            "policy.decisions" => t.policy_decisions += delta,
            "planner.decisions" => t.planner_decisions += delta,
            _ => {}
        }
    }

    fn observe(&mut self, histogram: &'static str, value: u64) {
        if histogram == "backup.lag_ns" {
            self.tally.backup_lag_ns += value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_each_interval_to_the_kind_that_opened_it() {
        let mut sink = HostClockSink::new();
        let t0 = Nanoseconds::ZERO;
        sink.instant("orch", "vm-arrival", t0, &[]);
        sink.instant("orch", "placement", t0, &[]); // not an event kind
        sink.instant("orch/policy", "backup-tick", t0, &[]); // other track
        sink.instant("orch", "backup-tick", t0, &[]);
        sink.instant("orch", "vm-arrival", t0, &[]);
        let tally = sink.finish(Instant::now());
        let arrival = kind_index("vm-arrival").unwrap();
        let backup = kind_index("backup-tick").unwrap();
        assert_eq!(tally.count[arrival], 2);
        assert_eq!(tally.count[backup], 1);
        assert_eq!(tally.events(), 3);
    }

    #[test]
    fn tallies_known_counters_and_fabric_spans() {
        let mut sink = HostClockSink::new();
        sink.add("backups", 3);
        sink.add("fabric.wire_bytes", 10);
        sink.add("unknown", 7);
        sink.observe("backup.lag_ns", 5);
        sink.observe("backup.lag_ns", 6);
        sink.span(
            "fabric",
            "transfer",
            Nanoseconds::ZERO,
            Nanoseconds(9),
            &[
                ("streams", ArgValue::U64(4)),
                ("queue_wait_ns", ArgValue::U64(8)),
            ],
        );
        let t = sink.finish(Instant::now());
        assert_eq!(t.backups, 3);
        assert_eq!(t.fabric_wire_bytes, 10);
        assert_eq!(t.backup_lag_ns, 11);
        assert_eq!(t.fabric_wait_ns, 8);
        assert_eq!(t.fabric_striped_transfers, 1);
    }
}

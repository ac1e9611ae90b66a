//! Live feed: turns a telemetry hub's state into the engine's
//! observation stream.
//!
//! Poll the feed at single-threaded barriers, *after* shard hubs have
//! been absorbed in trial order — the feed diffs the merged hub against
//! its previous poll, so the resulting stream (and therefore every
//! query output and alert) is byte-identical at any thread count.
//!
//! What a poll yields:
//!
//! - **counters** — the increment since the previous poll, stamped at
//!   the barrier time `now` (barrier-granularity attribution);
//! - **gauges** — the current value, sampled every poll (one sample
//!   per barrier, the signal gauge-sourced control loops smooth);
//! - **histograms** — the bucket-delta since the previous poll
//!   ([`Histogram::diff`]), exact for count/sum/buckets;
//! - **events / decisions** — every record not yet consumed (tracked
//!   by ring sequence number), at its *true* simulated record time.
//!
//! The batch is stable-sorted by timestamp before it is returned, so
//! replaying a recorded artifact (same sort, see [`crate::replay`])
//! produces the same per-window contents and the same rule
//! transitions.

use std::collections::BTreeMap;

use udc_telemetry::{Histogram, Labels, Telemetry};

use crate::engine::Obs;
use crate::Micros;

/// Stateful cursor over one hub. Keep one feed per hub for the life of
/// the run; its diffs assume the hub only accumulates (which absorbed
/// driver hubs do).
#[derive(Default)]
pub struct HubFeed {
    counters: BTreeMap<(String, Labels), u64>,
    hists: BTreeMap<(String, Labels), Histogram>,
    next_event_seq: u64,
    next_decision_seq: u64,
}

impl HubFeed {
    /// A fresh feed (first poll yields everything recorded so far).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains everything new since the previous poll as a
    /// timestamp-ordered observation batch. `now` is the barrier's sim
    /// time; metric samples are stamped with it.
    pub fn poll(&mut self, hub: &Telemetry, now: Micros) -> Vec<Obs> {
        let snap = hub.snapshot();
        let mut out = Vec::new();
        for (name, labels, value) in snap.counters {
            let key = (name, labels);
            let prev = self.counters.get(&key).copied().unwrap_or(0);
            let delta = value.saturating_sub(prev);
            self.counters.insert(key.clone(), value);
            if delta > 0 {
                out.push(Obs::Counter {
                    at_us: now,
                    name: key.0,
                    labels: key.1,
                    delta,
                });
            }
        }
        for (name, labels, value, _high_water) in snap.gauges {
            out.push(Obs::Gauge {
                at_us: now,
                name,
                labels,
                value: value as f64,
            });
        }
        for (name, labels, hist) in hub.histograms_raw() {
            let key = (name, labels);
            let delta = match self.hists.get(&key) {
                Some(prev) => hist.diff(prev),
                None => hist.clone(),
            };
            self.hists.insert(key.clone(), hist);
            if delta.count() > 0 {
                out.push(Obs::Hist {
                    at_us: now,
                    name: key.0,
                    labels: key.1,
                    delta: Box::new(delta),
                });
            }
        }
        for e in snap.events {
            if e.seq >= self.next_event_seq {
                self.next_event_seq = e.seq + 1;
                out.push(Obs::Event {
                    at_us: e.at_us,
                    kind: e.kind.as_str().to_string(),
                    labels: e.labels,
                });
            }
        }
        for d in snap.decisions {
            if d.seq >= self.next_decision_seq {
                self.next_decision_seq = d.seq + 1;
                out.push(Obs::Decision {
                    at_us: d.at_us,
                    stage: d.stage,
                    module: d.module,
                    reason: d.reason.as_str().to_string(),
                    accepted: d.accepted,
                });
            }
        }
        // Stable sort: equal timestamps keep the construction order
        // (metrics, then events, then decisions) — the same order the
        // replay path reconstructs.
        out.sort_by_key(Obs::at_us);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_telemetry::{Decision, EventKind, ReasonCode};

    #[test]
    fn poll_diffs_counters_and_histograms() {
        let hub = Telemetry::enabled();
        let mut feed = HubFeed::new();
        hub.incr("hits", Labels::none(), 5);
        hub.observe("lat", Labels::none(), 100);
        hub.observe("lat", Labels::none(), 200);
        let batch = feed.poll(&hub, 1_000);
        let deltas: Vec<u64> = batch
            .iter()
            .filter_map(|o| match o {
                Obs::Counter { delta, .. } => Some(*delta),
                _ => None,
            })
            .collect();
        assert_eq!(deltas, vec![5]);
        let hist_counts: Vec<u64> = batch
            .iter()
            .filter_map(|o| match o {
                Obs::Hist { delta, .. } => Some(delta.count()),
                _ => None,
            })
            .collect();
        assert_eq!(hist_counts, vec![2]);

        // Second poll sees only what happened since.
        hub.incr("hits", Labels::none(), 2);
        let batch = feed.poll(&hub, 2_000);
        let deltas: Vec<u64> = batch
            .iter()
            .filter_map(|o| match o {
                Obs::Counter { delta, .. } => Some(*delta),
                _ => None,
            })
            .collect();
        assert_eq!(deltas, vec![2]);
        assert!(
            !batch.iter().any(|o| matches!(o, Obs::Hist { .. }),),
            "no new observations"
        );
    }

    #[test]
    fn poll_consumes_events_and_decisions_once_at_true_times() {
        let hub = Telemetry::enabled();
        hub.set_clock(|| 400);
        let mut feed = HubFeed::new();
        hub.event(EventKind::Failure, Labels::module("acme", "m0"), &[]);
        hub.decide(Decision {
            ctx: None,
            stage: "heal.detect",
            module: "m0",
            candidate: "m0",
            accepted: true,
            reason: ReasonCode::Evicted,
            score: None,
            detail: String::new(),
        });
        let batch = feed.poll(&hub, 1_000);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|o| o.at_us() == 400), "true record times");
        assert!(matches!(&batch[0], Obs::Event { kind, .. } if kind == "failure"));
        assert!(
            matches!(&batch[1], Obs::Decision { stage, accepted: true, .. } if stage == "heal.detect")
        );
        assert!(feed.poll(&hub, 2_000).is_empty(), "consumed exactly once");
    }

    #[test]
    fn gauges_are_sampled_every_poll() {
        let hub = Telemetry::enabled();
        let mut feed = HubFeed::new();
        hub.gauge_set("depth", Labels::none(), 7);
        for now in [100, 200] {
            let batch = feed.poll(&hub, now);
            assert!(batch
                .iter()
                .any(|o| matches!(o, Obs::Gauge { value, .. } if *value == 7.0)));
        }
    }

    #[test]
    fn batch_is_sorted_by_timestamp() {
        let hub = Telemetry::enabled();
        hub.set_clock(|| 50);
        let mut feed = HubFeed::new();
        hub.event(EventKind::Failure, Labels::none(), &[]);
        hub.incr("hits", Labels::none(), 1);
        let batch = feed.poll(&hub, 1_000);
        // The event (t=50) sorts before the counter sample (t=1000)
        // even though counters are collected first.
        assert!(matches!(&batch[0], Obs::Event { .. }));
        assert!(matches!(&batch[1], Obs::Counter { .. }));
    }
}

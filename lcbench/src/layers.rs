//! The per-layer metrics of the traced run and the self-time table they
//! come from. Names and units here are the ones `BENCHMARK.json` lists.

use std::collections::BTreeMap;

use crate::record::Record;
use crate::trace::OpProfile;

enum Source {
    /// Mean wall time of a core op.
    Op(&'static str),
    /// Mean self time per core op of a span beneath it (the op's own
    /// name gives its unattributed remainder).
    SelfUs(&'static str, &'static str),
    /// Mean of a layer count.
    Count(&'static str),
    /// Paired tenant-op time of the traced pass minus the untraced one.
    Overhead,
}

use Source::*;

/// Every per-layer metric: name, unit, source.
const METRICS: &[(&str, &str, Source)] = &[
    ("core.new_us", "us", Op("core.new")),
    (
        "core.new.unattributed_us",
        "us",
        SelfUs("core.new", "core.new"),
    ),
    ("core.submit_us", "us", Op("core.submit")),
    (
        "core.submit.unattributed_us",
        "us",
        SelfUs("core.submit", "core.submit"),
    ),
    ("core.run_us", "us", Op("core.run")),
    (
        "core.run.unattributed_us",
        "us",
        SelfUs("core.run", "core.run"),
    ),
    ("core.verify_us", "us", Op("core.verify")),
    (
        "core.verify.unattributed_us",
        "us",
        SelfUs("core.verify", "core.verify"),
    ),
    ("core.teardown_us", "us", Op("core.teardown")),
    (
        "core.teardown.unattributed_us",
        "us",
        SelfUs("core.teardown", "core.teardown"),
    ),
    ("core.advance_us", "us", Op("core.advance")),
    (
        "core.advance.unattributed_us",
        "us",
        SelfUs("core.advance", "core.advance"),
    ),
    (
        "spec.compile_us",
        "us",
        SelfUs("core.submit", "spec.compile"),
    ),
    ("spec.modules", "count", Count("spec.modules")),
    ("sched.place_us", "us", SelfUs("core.submit", "sched.place")),
    (
        "sched.release_us",
        "us",
        SelfUs("core.teardown", "sched.release"),
    ),
    ("sched.place_fail_frac", "frac", Count("sched.place_fail")),
    (
        "hal.allocate_us",
        "us",
        SelfUs("core.submit", "hal.allocate"),
    ),
    (
        "hal.release_us",
        "us",
        SelfUs("core.teardown", "hal.release"),
    ),
    ("hal.utilization", "frac", Count("hal.utilization")),
    ("extvm.score_us", "us", SelfUs("core.submit", "extvm.score")),
    ("extvm.score_ns", "ns", Count("extvm.score_ns")),
    (
        "extvm.scores_per_place",
        "count",
        Count("extvm.scores_per_place"),
    ),
    (
        "extvm.interp_fallback_frac",
        "frac",
        Count("extvm.interp_fallback_frac"),
    ),
    (
        "isolate.launch_us",
        "us",
        SelfUs("core.submit", "isolate.launch"),
    ),
    (
        "isolate.warm_hit_frac",
        "frac",
        Count("isolate.warm_hit_frac"),
    ),
    (
        "crypto.data_keys_us",
        "us",
        SelfUs("core.submit", "crypto.data_keys"),
    ),
    ("crypto.seal_us", "us", SelfUs("core.run", "crypto.seal")),
    ("crypto.seal_bytes", "B", Count("crypto.seal_bytes")),
    (
        "crypto.quote_verify_us",
        "us",
        SelfUs("core.verify", "crypto.quote_verify"),
    ),
    (
        "crypto.device_keys_us",
        "us",
        SelfUs("core.new", "crypto.device_keys"),
    ),
    (
        "economics.charge_us",
        "us",
        SelfUs("core.run", "economics.charge"),
    ),
    (
        "economics.reconcile_us",
        "us",
        SelfUs("core.verify", "economics.reconcile"),
    ),
    (
        "economics.ledger_charges",
        "count",
        Count("economics.ledger_charges"),
    ),
    (
        "telemetry.records_per_op",
        "count",
        Count("telemetry.records_per_op"),
    ),
    (
        "telemetry.dropped_events",
        "count",
        Count("telemetry.dropped_events"),
    ),
    ("query.feed_us", "us", SelfUs("core.advance", "query.feed")),
    (
        "query.engine_us",
        "us",
        SelfUs("core.advance", "query.engine"),
    ),
    (
        "query.obs_per_barrier",
        "count",
        Count("query.obs_per_barrier"),
    ),
    ("query.alerts_fired", "count", Count("query.alerts_fired")),
    (
        "failure.observe_us",
        "us",
        SelfUs("core.advance", "failure.observe"),
    ),
    ("failure.confirmed", "count", Count("failure.confirmed")),
    (
        "failure.false_suspects",
        "count",
        Count("failure.false_suspects"),
    ),
    ("heal.detected", "count", Count("heal.detected")),
    ("heal.repairs", "count", Count("heal.repairs")),
    ("heal.retries", "count", Count("heal.retries")),
    ("heal.degraded", "count", Count("heal.degraded")),
    (
        "heal.repairs_per_detected",
        "ratio",
        Count("heal.repairs_per_detected"),
    ),
    ("actor.replayed_msgs", "count", Count("actor.replayed_msgs")),
    ("trace.overhead_us", "us", Overhead),
];

/// Mean extra time per tenant op of the traced pass over the untraced
/// one, in microseconds. Both passes of a seed run the same ops in the
/// same order, so the shared prefix pairs every op with itself.
pub fn overhead_us(timed: &Record, traced: &Record) -> f64 {
    let n = timed.op_ns.len().min(traced.op_ns.len());
    if n == 0 {
        return 0.0;
    }
    let diff: i128 = (0..n)
        .map(|k| traced.op_ns[k] as i128 - timed.op_ns[k] as i128)
        .sum();
    diff as f64 / n as f64 / 1e3
}

pub fn per_layer(
    table: &BTreeMap<&'static str, OpProfile>,
    timed: &Record,
    traced: &Record,
) -> Vec<(String, &'static str, f64)> {
    let prof = |root: &str| table.get(root).cloned().unwrap_or_default();
    METRICS
        .iter()
        .map(|(name, unit, src)| {
            let v = match src {
                Op(root) => prof(root).mean_us(),
                SelfUs(root, span) => prof(root).self_us(span),
                Count(c) => traced.mean(c),
                Overhead => overhead_us(timed, traced),
            };
            (name.to_string(), *unit, v)
        })
        .collect()
}

/// The metric name a span's self time is reported under.
fn metric_of(root: &str, span: &str) -> String {
    if root == span {
        format!("{root}.unattributed_us")
    } else {
        format!("{span}_us")
    }
}

/// Prints, for every core op of the traced pass, its mean time and the
/// self time per op of each layer beneath it, with their sum. The sum
/// equals the op's time by construction: the op's own self time is its
/// duration minus its replays', so the remainder is op time minus replay
/// time, not a separate measurement.
pub fn print_table(table: &BTreeMap<&'static str, OpProfile>, timed: &Record, traced: &Record) {
    println!(
        "per-layer self time, traced pass ({} tenant ops, {} epochs, {} spans)",
        traced.tracer.as_ref().map_or(0, |t| t.ops()),
        traced.epochs,
        traced.tracer.as_ref().map_or(0, |t| t.spans.len())
    );
    for root in [
        "core.new",
        "core.submit",
        "core.run",
        "core.verify",
        "core.teardown",
        "core.advance",
    ] {
        let Some(p) = table.get(root) else { continue };
        println!(
            "  {:<34} {:>12.3} us   n={}",
            format!("{root}_us"),
            p.mean_us(),
            p.count
        );
        let mut rows: Vec<(&&str, &i128)> = p.self_ns.iter().collect();
        // Layers first, largest first; the remainder last.
        rows.sort_by_key(|(name, ns)| (**name == root, std::cmp::Reverse(**ns)));
        for (name, ns) in &rows {
            let per_op = **ns as f64 / p.count as f64 / 1e3;
            let share = 100.0 * **ns as f64 / p.total_ns.max(1) as f64;
            println!(
                "    {:<32} {:>12.3} us   {:>6.1}%",
                metric_of(root, name),
                per_op,
                share
            );
        }
        let sum: i128 = p.self_ns.values().sum();
        println!(
            "    {:<32} {:>12.3} us   (= {root}_us: {})",
            "sum",
            sum as f64 / p.count as f64 / 1e3,
            sum == p.total_ns as i128
        );
    }
    println!(
        "  tracing overhead: trace.overhead_us {:.3} us per tenant op, paired over the first {} ops of both passes",
        overhead_us(timed, traced),
        timed.op_ns.len().min(traced.op_ns.len())
    );
}

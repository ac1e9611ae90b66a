//! The E12 fine-tune control loop: one EWMA query per module over a
//! `tune.usage` gauge stream in the continuous-query engine, the tuner
//! fed from subscription polls via `FineTuner::evaluate_usage`. Each
//! round records one Measurement event into the returned hub; alert
//! rules ride the same observation stream. `tests/query_equiv.rs` pins
//! the exported artifact byte for byte against the committed
//! `results/exp_12_finetune.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use udc_query::{Aggregation, LabelFilter, Obs, QueryEngine, QuerySpec, Source, SubId, WindowSpec};
use udc_sched::{FineTuner, TuneAction, TunerConfig};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry as Hub};

/// Gauge name the loop streams per-module usage under.
pub const USAGE_GAUGE: &str = "tune.usage";
/// EWMA smoothing factor of the per-module usage queries.
pub const EWMA_ALPHA: f64 = 0.3;
/// One control round per simulated second: each round's sample lands in
/// its own tumbling window, closed by the round's `advance_to`.
pub const ROUND_US: u64 = 1_000_000;
/// Rounds in the standard E12 run.
pub const ROUNDS: u64 = 12;

/// Fires when a module's raw usage sits above 1.0 (saturated: demand
/// exceeds allocation) for a full control round — the condition that
/// gates the tuner's grow/migrate escalation. E12 loads it.
pub fn saturation_rule() -> String {
    format!("e12.saturated: sustained(gauge:{USAGE_GAUGE} > 1) for 1s")
}

/// One simulated module: a fixed true need against a moving allocation.
pub struct SimModule {
    /// Module name (also the gauge's module label).
    pub name: &'static str,
    /// Units the module actually needs.
    pub true_need: f64,
    /// The user's initial (mis-)specification.
    pub initial: u64,
    /// Current allocation, updated by tuner actions.
    pub allocated: u64,
}

/// The standard E12 population: mis-specified by -50%, +50%, +300%,
/// and one already in band.
pub fn standard_modules() -> Vec<SimModule> {
    [
        ("under50", 8.0, 4u64),
        ("over50", 8.0, 12),
        ("over300", 4.0, 16),
        ("inband", 4.2, 6),
    ]
    .into_iter()
    .map(|(name, true_need, initial)| SimModule {
        name,
        true_need,
        initial,
        allocated: initial,
    })
    .collect()
}

/// Per-round aggregates (what E12's convergence table prints).
pub struct RoundStats {
    /// Round index.
    pub round: u64,
    /// Total allocated units after this round's actions.
    pub total_allocated: u64,
    /// Total true need.
    pub total_needed: f64,
    /// Over-allocation waste fraction.
    pub waste: f64,
    /// Modules whose need exceeds their allocation.
    pub starved: u64,
    /// Tuner actions applied this round.
    pub actions: u64,
}

/// Everything a caller needs to print tables, export artifacts, or
/// assert equivalence.
pub struct SimOutcome {
    /// The telemetry hub: one Measurement event per round, plus any
    /// alerts the loaded rules fired.
    pub hub: Hub,
    /// Final module allocations.
    pub modules: Vec<SimModule>,
    /// Tuner SLO-violation count.
    pub slo_violations: u64,
    /// Tuner actions issued.
    pub actions_issued: u64,
    /// Per-round table rows.
    pub rounds: Vec<RoundStats>,
}

/// Runs the simulation. `rules` are alert rules (the grammar of
/// [`udc_query::parse_rule`]) evaluated against the loop's observation
/// stream; they do not alter the tuner's behavior — they only fire
/// alerts into the hub.
pub fn run(rules: &[&str]) -> SimOutcome {
    let mut modules = standard_modules();
    let mut tuner = FineTuner::new(TunerConfig::default());
    let hub = Hub::enabled();
    let clock = Arc::new(AtomicU64::new(0));
    {
        let c = clock.clone();
        hub.set_clock(move || c.load(Ordering::Relaxed));
    }

    let mut engine = QueryEngine::new();
    let mut subs: Vec<SubId> = Vec::new();
    for m in &modules {
        let name = format!("tune.usage.{}", m.name);
        engine
            .register(QuerySpec {
                name: name.clone(),
                source: Source::Gauge {
                    name: USAGE_GAUGE.to_string(),
                    labels: LabelFilter {
                        tenant: None,
                        module: Some(m.name.to_string()),
                    },
                },
                agg: Aggregation::Ewma { alpha: EWMA_ALPHA },
                window: WindowSpec::tumbling(ROUND_US),
            })
            .expect("usage query registers");
        subs.push(engine.subscribe(&name).expect("usage query subscribes"));
    }
    for text in rules {
        let parsed = udc_query::parse_rule(text).expect("sim rule parses");
        for q in parsed.queries {
            engine.register(q).expect("sim rule query registers");
        }
        engine.add_rule(parsed.rule).expect("sim rule loads");
    }

    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        clock.store(round * ROUND_US, Ordering::Relaxed);
        // Usage: need / allocation, with a deterministic ripple.
        let ripple = 1.0 + 0.05 * ((round % 3) as f64 - 1.0);
        for m in &modules {
            engine.push(Obs::Gauge {
                at_us: round * ROUND_US,
                name: USAGE_GAUGE.to_string(),
                labels: Labels {
                    tenant: None,
                    module: Some(m.name.to_string()),
                },
                value: (m.true_need * ripple) / m.allocated.max(1) as f64,
            });
        }
        // Close this round's windows; each subscription yields the EWMA
        // including this round's sample.
        engine.advance_to((round + 1) * ROUND_US);
        let smoothed: Vec<Option<f64>> = subs
            .iter()
            .map(|&s| engine.poll(s).last().map(|o| o.value))
            .collect();
        engine.fire_into(&hub);
        let mut actions = 0u64;
        for (m, sm) in modules.iter_mut().zip(&smoothed) {
            let Some(usage) = *sm else { continue };
            if let Some(action) = tuner.evaluate_usage(m.name, usage, m.allocated, 1_000) {
                match action {
                    TuneAction::Resize { to_units, .. } => m.allocated = to_units,
                    TuneAction::Migrate { units, .. } => m.allocated = units,
                }
                actions += 1;
            }
        }
        let total_allocated: u64 = modules.iter().map(|m| m.allocated).sum();
        let total_needed: f64 = modules.iter().map(|m| m.true_need).sum();
        let waste = (total_allocated as f64 - total_needed).max(0.0) / total_allocated as f64;
        let starved = modules
            .iter()
            .filter(|m| m.true_need > m.allocated as f64)
            .count() as u64;
        hub.event(
            EventKind::Measurement,
            Labels::tenant(format!("round{round}")),
            &[
                ("total_allocated", FieldValue::from(total_allocated)),
                ("total_needed", FieldValue::from(total_needed)),
                ("overalloc_waste", FieldValue::from(waste)),
                ("starved_modules", FieldValue::from(starved)),
                ("actions", FieldValue::from(actions)),
            ],
        );
        rounds.push(RoundStats {
            round,
            total_allocated,
            total_needed,
            waste,
            starved,
            actions,
        });
    }
    SimOutcome {
        hub,
        modules,
        slo_violations: tuner.slo_violations,
        actions_issued: tuner.actions_issued,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_every_module_into_band() {
        let out = run(&[]);
        for m in &out.modules {
            let usage = m.true_need / m.allocated as f64;
            assert!(
                (0.35..=1.0).contains(&usage),
                "{} ended at usage {usage}",
                m.name
            );
        }
        assert_eq!(out.rounds.len(), ROUNDS as usize);
    }
}

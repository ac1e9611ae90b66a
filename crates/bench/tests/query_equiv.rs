//! Two observable-equivalence contracts of the continuous-query path.
//!
//! 1. **The subscription-driven E12 loop reproduces its committed
//!    artifact.** `finetune_sim::run` with E12's saturation rule must
//!    export `results/exp_12_finetune.json` byte for byte — same
//!    decisions, same smoothed usage, same alerts.
//!
//! 2. **Alerts are deterministic at any `--threads N`.** Rule
//!    evaluation happens only at the single-threaded barrier, after
//!    shard hubs are absorbed in trial order — so a chaos-style
//!    multi-hub run must fire the same alerts, in the same order, with
//!    the same timestamps, whether the trials ran on 1 thread or 4.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use udc_bench::finetune_sim;
use udc_telemetry::{EventKind, Labels, Telemetry};

/// The committed E12 artifact (`exp_12_finetune` writes it through
/// `report::export`, i.e. `Snapshot::to_json`).
const EXP_12_ARTIFACT: &str = include_str!("../../../results/exp_12_finetune.json");

#[test]
fn finetune_loop_reproduces_committed_exp_12_artifact() {
    let rule = finetune_sim::saturation_rule();
    let out = finetune_sim::run(&[rule.as_str()]);
    assert!(
        out.hub.snapshot().to_json() == EXP_12_ARTIFACT,
        "finetune_sim output must match results/exp_12_finetune.json byte for byte"
    );
}

/// A chaos-style trial: its own hub, its own sim clock, a deterministic
/// burst/quiet failure pattern derived from the trial index.
fn run_trial(i: usize) -> Telemetry {
    let hub = Telemetry::enabled();
    let clock = Arc::new(AtomicU64::new(0));
    {
        let c = clock.clone();
        hub.set_clock(move || c.load(Ordering::Relaxed));
    }
    let module = format!("m{i}");
    // Burst at 10ms spacing (trips rapid_refailure's 100ms window and
    // failure_burst's 250ms count), then silence past 500ms (trips
    // absence), then one late failure re-arming the sequence rule.
    let burst = 3 + (i % 3) as u64;
    for k in 0..burst {
        clock.store(100_000 + k * 10_000, Ordering::Relaxed);
        hub.event(EventKind::Failure, Labels::module("acme", &module), &[]);
    }
    clock.store(900_000 + (i as u64) * 1_000, Ordering::Relaxed);
    hub.event(EventKind::Failure, Labels::module("acme", &module), &[]);
    hub
}

/// Merges `trials` trial hubs (computed across `threads` workers) into
/// one driver hub, evaluates the default ruleset at the barrier, and
/// returns the full artifact JSON.
fn chaos_style_artifact(threads: usize, trials: usize) -> String {
    let main = Telemetry::enabled();
    let hubs = udc_bench::harness::fan_out(threads, trials, run_trial);
    // Absorption in trial order is the determinism contract: the thread
    // count decided who *computed* each hub, never the merge order.
    for hub in &hubs {
        main.absorb_draining(hub);
    }
    let mut engine = udc_query::QueryEngine::new();
    for parsed in udc_query::default_ruleset() {
        for q in parsed.queries {
            engine.register(q).expect("preset query registers");
        }
        engine.add_rule(parsed.rule).expect("preset rule loads");
    }
    let mut feed = udc_query::HubFeed::new();
    engine.ingest(feed.poll(&main, 2_000_000));
    engine.advance_to(2_000_000);
    engine.fire_into(&main);
    assert!(
        !engine.alerts().is_empty(),
        "the trial pattern must actually trip the default rules"
    );
    main.snapshot().to_json()
}

#[test]
fn chaos_alerts_are_byte_identical_across_thread_counts() {
    let single = chaos_style_artifact(1, 6);
    let parallel = chaos_style_artifact(4, 6);
    assert_eq!(
        single, parallel,
        "alert evaluation at the barrier must not observe the thread count"
    );
}

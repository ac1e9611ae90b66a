//! `lcbench` — the UDC tenant-lifecycle benchmark.
//!
//! ```text
//! lcbench --workload <tenant_lifecycle|fleet_churn|heal_under_faults>
//!         --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Every run makes a timed, untraced pass for `--seconds` and then a
//! traced pass of the same seed. With `--trace 0` the traced pass covers
//! only the identity prefix (to check that tracing changes no sim-clock
//! output) and the result line carries the end-to-end metrics. With
//! `--trace 1` the traced pass also runs for `--seconds`, the per-layer
//! table is printed, and the result line carries the per-layer metrics.
//! `--quick` shrinks every epoch to the short length the benchmark's own
//! test runs. The last line of standard output is the JSON result.

mod gen;
mod layers;
mod record;
mod shadow;
mod trace;
mod workloads;

use record::{percentile, Record};
use workloads::{Sizes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        quick,
    })
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Tenant ops per second of client time (the loop is closed, so this is
/// the rate one waiting client sees).
fn ops_per_s(ops: &[u64]) -> f64 {
    let total: u64 = ops.iter().sum();
    if total == 0 {
        0.0
    } else {
        ops.len() as f64 / (total as f64 / 1e9)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let sizes = Sizes::of(w, args.quick);
    let seconds = if args.quick { 0.0 } else { args.seconds };

    // A traced run splits its time between the untraced baseline and the
    // traced pass, so both modes take about `--seconds`.
    let timed_seconds = if args.trace { seconds / 2.0 } else { seconds };
    let timed = workloads::pass(w, args.seed, timed_seconds, sizes, args.quick, false);
    let rss = peak_rss_mb();
    let mut traced = workloads::pass(
        w,
        args.seed,
        seconds / 2.0,
        sizes,
        args.quick || !args.trace,
        true,
    );

    // Tracing must not change a single sim-clock output.
    let (a, b) = (timed.identity_json(), traced.identity_json());
    traced.check_extra(a == b, || {
        format!("traced identity {b} differs from timed {a}")
    });

    report(w, &args, &timed, rss);
    println!("identity {a}");
    let table = traced.tracer.as_ref().expect("traced pass").table();
    layers::print_table(&table, &timed, &traced);

    let attempted = timed.attempted + traced.attempted;
    let failed = (timed.failed + traced.failed).min(attempted);
    println!(
        "  {:<26} {:>14.6} {:<6} {failed} of {attempted} ops and checks, both passes",
        "ops_failed_frac",
        failed as f64 / attempted as f64,
        "frac"
    );
    for n in timed.notes.iter().chain(&traced.notes) {
        println!("FAILED: {n}");
    }
    let metrics: Vec<(String, &str, f64)> = if args.trace {
        layers::per_layer(&table, &timed, &traced)
    } else {
        end_to_end(&timed, rss)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metrics `BENCHMARK.json` bounds: the same ones on every workload,
/// with the tenant op as described by [`Workload::op_name`].
///
/// The op median and rate are printed by [`report`] but not bounded: on a
/// shared 2-vCPU host, co-tenants switch the vCPU between a fast mode and
/// one about 1.6x slower for seconds at a time, so the median of a run
/// lands in either mode and spread by up to 37% across 30 s runs. The p99
/// is set by the slow mode, which nearly every run meets, and spread by
/// 4-22% across 35 s runs (the top when whole runs land in the slow mode).
fn end_to_end(timed: &Record, rss: f64) -> Vec<(String, &'static str, f64)> {
    vec![
        (
            "setup_s".into(),
            "s",
            percentile(&timed.setup_ns, 0.5) as f64 / 1e9,
        ),
        ("op_p99_us".into(), "us", us(percentile(&timed.op_ns, 0.99))),
        ("peak_rss_mb".into(), "MB", rss),
    ]
}

/// The human-readable report: every end-to-end figure by name and unit,
/// including the per-call ones that apply to this workload.
fn report(w: Workload, args: &Args, timed: &Record, rss: f64) {
    let n = timed.op_ns.len();
    println!(
        "lcbench workload={} seed={} seconds={} epochs={} ops={n} op={}",
        w.name(),
        args.seed,
        args.seconds,
        timed.epochs,
        w.op_name()
    );
    let line = |name: &str, v: String, unit: &str, note: String| {
        println!("  {name:<26} {v:>14} {unit:<6} {note}")
    };
    line(
        "setup_s",
        format!("{:.6}", percentile(&timed.setup_ns, 0.5) as f64 / 1e9),
        "s",
        format!("median of {} set-ups", timed.setup_ns.len()),
    );
    let calls = |name: &str| timed.calls.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let pcts = |prefix: &str, samples: &[u64]| {
        if samples.is_empty() {
            line(
                &format!("{prefix}_p50_us"),
                "n/a".into(),
                "us",
                "not on this workload".into(),
            );
            line(
                &format!("{prefix}_p99_us"),
                "n/a".into(),
                "us",
                "not on this workload".into(),
            );
        } else {
            let n = samples.len();
            line(
                &format!("{prefix}_p50_us"),
                format!("{:.2}", us(percentile(samples, 0.5))),
                "us",
                format!("n={n}"),
            );
            line(
                &format!("{prefix}_p99_us"),
                format!("{:.2}", us(percentile(samples, 0.99))),
                "us",
                format!("n={n}"),
            );
        }
    };
    let rate = |name: &str, samples: &[u64]| {
        if samples.is_empty() {
            line(name, "n/a".into(), "1/s", "not on this workload".into());
        } else {
            line(
                name,
                format!("{:.1}", ops_per_s(samples)),
                "1/s",
                format!("n={}", samples.len()),
            );
        }
    };
    line(
        "ops_per_s",
        format!("{:.1}", ops_per_s(&timed.op_ns)),
        "1/s",
        format!("n={n}"),
    );
    pcts("op", &timed.op_ns);
    let deploys: &[u64] = if w == Workload::HealUnderFaults {
        &[]
    } else {
        &timed.op_ns
    };
    rate("deploys_per_s", deploys);
    pcts("deploy", deploys);
    pcts("submit", calls("core.submit"));
    rate("barriers_per_s", calls("core.advance"));
    pcts("advance", calls("core.advance"));
    let ident = |key: &str| {
        timed
            .identity
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    for (name, unit) in [
        ("makespan_p50_ms", "ms"),
        ("cost_per_deploy_udollars", "u$"),
        ("mttr_p50_ms", "ms"),
    ] {
        match ident(name) {
            Some(v) => line(name, v, unit, "sim clock, identity prefix".into()),
            None => line(name, "n/a".into(), unit, "not on this workload".into()),
        }
    }
    line(
        "peak_rss_mb",
        format!("{rss:.1}"),
        "MB",
        "VmHWM after the timed pass".into(),
    );
}

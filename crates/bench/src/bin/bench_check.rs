//! Enforces performance floors over the machine-readable bench JSON
//! that the criterion shim writes when `UDC_BENCH_JSON` is set:
//!
//! ```text
//! UDC_BENCH_QUICK=1 UDC_BENCH_JSON=results/bench_control_plane.json \
//!     cargo bench -p udc-bench --bench bench_control_plane
//! UDC_BENCH_QUICK=1 UDC_BENCH_JSON=results/bench_telemetry.json \
//!     cargo bench -p udc-bench --bench bench_telemetry
//! cargo run -p udc-bench --bin bench_check -- \
//!     results/bench_control_plane.json results/bench_telemetry.json
//! ```
//!
//! Every threshold is stated next to its check. All files passed on the
//! command line are merged into one name → ns/iter map; a missing bench
//! name fails the run (a silently skipped check is a regression vector).
//! `--suite=control|telemetry|actor|economics|query|failure|extvm|crypto` (repeatable) restricts which check
//! suites run, so a CI job that only ran one bench binary can enforce
//! exactly that binary's floors; with no `--suite=` flag every suite
//! runs. Exits 0 when every check holds, 1 otherwise.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn load_into(map: &mut BTreeMap<String, f64>, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let benches = root
        .get("benches")
        .and_then(|b| b.as_array())
        .ok_or_else(|| format!("{path}: no \"benches\" array"))?;
    for entry in benches {
        let name = entry
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("{path}: bench entry without a name"))?;
        let ns = entry
            .get("ns_per_iter")
            .and_then(|n| n.as_f64())
            .ok_or_else(|| format!("{path}: bench {name:?} without ns_per_iter"))?;
        map.insert(name.to_string(), ns);
    }
    Ok(())
}

struct Checker {
    results: BTreeMap<String, f64>,
    failures: usize,
}

impl Checker {
    fn ns(&mut self, name: &str) -> Option<f64> {
        let found = self.results.get(name).copied();
        if found.is_none() {
            println!("FAIL  missing bench result: {name}");
            self.failures += 1;
        }
        found
    }

    /// Requires `slow` to be at least `min_ratio` times slower than
    /// `fast` — the floor on an optimization's measured speedup.
    fn speedup(&mut self, slow: &str, fast: &str, min_ratio: f64) {
        let (Some(s), Some(f)) = (self.ns(slow), self.ns(fast)) else {
            return;
        };
        let ratio = s / f.max(1e-9);
        let ok = ratio >= min_ratio;
        println!(
            "{}  {slow} / {fast} = {ratio:.2}x (floor {min_ratio:.2}x)",
            if ok { "ok  " } else { "FAIL" },
        );
        if !ok {
            self.failures += 1;
        }
    }

    /// Requires `name` to cost at most `max_ns` ns/iter.
    fn at_most_ns(&mut self, name: &str, max_ns: f64) {
        let Some(ns) = self.ns(name) else { return };
        let ok = ns <= max_ns;
        println!(
            "{}  {name} = {ns:.1} ns/iter (ceiling {max_ns:.1})",
            if ok { "ok  " } else { "FAIL" },
        );
        if !ok {
            self.failures += 1;
        }
    }

    /// Requires `a` to cost at most `max_ratio` times `b`.
    fn ratio_at_most(&mut self, a: &str, b: &str, max_ratio: f64) {
        let (Some(na), Some(nb)) = (self.ns(a), self.ns(b)) else {
            return;
        };
        let ratio = na / nb.max(1e-9);
        let ok = ratio <= max_ratio;
        println!(
            "{}  {a} / {b} = {ratio:.3} (ceiling {max_ratio:.3})",
            if ok { "ok  " } else { "FAIL" },
        );
        if !ok {
            self.failures += 1;
        }
    }
}

const SUITES: &[&str] = &[
    "control",
    "telemetry",
    "actor",
    "economics",
    "query",
    "failure",
    "extvm",
    "crypto",
];

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut suites = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(name) = arg.strip_prefix("--suite=") {
            if !SUITES.contains(&name) {
                eprintln!("unknown suite {name:?} (one of: {SUITES:?})");
                return ExitCode::from(2);
            }
            suites.push(name.to_string());
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() {
        eprintln!(
            "usage: bench_check \
             [--suite=control|telemetry|actor|economics|query|failure|extvm|crypto]... \
             <bench-json>..."
        );
        return ExitCode::from(2);
    }
    let run = |name: &str| suites.is_empty() || suites.iter().any(|s| s == name);
    let mut results = BTreeMap::new();
    for path in &paths {
        if let Err(msg) = load_into(&mut results, path) {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    let mut c = Checker {
        results,
        failures: 0,
    };

    if run("control") {
        // Allocation fast path: the indexed pool must beat the retained
        // seed allocator by >= 3x on allocate/release churn at 16k
        // devices (the PR's acceptance floor; measured locally at
        // >1000x, so 3x only trips on a real regression, not CI noise).
        c.speedup("pool_churn/linear/16000", "pool_churn/indexed/16000", 3.0);
        // The gap must already show at 1k devices (floor 2x).
        c.speedup("pool_churn/linear/1000", "pool_churn/indexed/1000", 2.0);
        // Indexed bin-packing must beat the naive scan on FFD at 10k
        // demands (floor 1.5x; measured ~9x).
        c.speedup("binpack_10k/naive/ffd", "binpack_10k/indexed/ffd", 1.5);
        // Best-fit must at least not regress against the naive scan.
        c.speedup(
            "binpack_10k/naive/bestfit",
            "binpack_10k/indexed/bestfit",
            1.0,
        );
        // Placement cost must not follow fleet size: warm place+release
        // of the medical app under the compiled best-fit policy at 6,400
        // devices costs at most 1.5x the same at 100 (measured
        // 1.1-1.3x on a shared 2-vCPU host; the per-device scan this
        // replaced measured 6-9x there).
        c.ratio_at_most("sched/place_medical_6400", "sched/place_medical_warm", 1.5);
    }

    if run("economics") {
        // Quota-gated admission is one pure `admit` plus one `commit`
        // under a lock per placement: at most 5% over the ungated
        // placement (the PR's acceptance floor; measured ~1.00-1.02x).
        c.ratio_at_most(
            "sched/place_medical_quota_gated",
            "sched/place_medical",
            1.05,
        );
    }

    if run("telemetry") {
        // Disabled-telemetry overhead: a no-op counter bump is one
        // Option check and must stay under 25 ns/iter even on a noisy
        // runner.
        c.at_most_ns("telemetry/noop_incr", 25.0);
        c.at_most_ns("telemetry/noop_span", 25.0);
        // An instrumented placement with telemetry disabled must not
        // cost more than 1.15x the enabled run (it is normally well
        // below it; this trips if the disabled path ever starts doing
        // real work).
        c.ratio_at_most(
            "telemetry_overhead/place_medical/disabled",
            "telemetry_overhead/place_medical/enabled",
            1.15,
        );
    }

    if run("actor") {
        // The PR's acceptance floor: the optimized runtime must move
        // the 10k-actor ping storm (telemetry enabled) at >= 5x the
        // seed's msgs/sec (measured 5.3-5.6x on the dev machine; the
        // interleaved-group harness keeps the ratio honest on noisy
        // runners).
        c.speedup(
            "actor_ping_storm/naive/enabled",
            "actor_ping_storm/fast/enabled",
            5.0,
        );
        // Resolved-handle instruments with telemetry disabled must cost
        // at most 1.15x the enabled run (measured ~0.9x: the disabled
        // path is the same code minus cell stores).
        c.ratio_at_most(
            "actor_ping_storm/fast/disabled",
            "actor_ping_storm/fast/enabled",
            1.15,
        );
        // O(active) scheduling: a 64-hop walk through 10k mostly-idle
        // actors costs the seed a full population scan per hop. The
        // measured gap is ~9000x; 100x only trips on a real regression.
        c.speedup("actor_sparse_chain/naive", "actor_sparse_chain/fast", 100.0);
        // Message-spine throughput (fan-out cascade) and the
        // supervised failure/retry path must also stay well ahead of
        // the seed (measured ~4x each; floor 2x).
        c.speedup(
            "actor_fanout_cascade/naive/enabled",
            "actor_fanout_cascade/fast/enabled",
            2.0,
        );
        c.speedup(
            "actor_failure_churn/naive/enabled",
            "actor_failure_churn/fast/enabled",
            2.0,
        );
        // Work-stealing executor. Every thread count must be in the
        // artifact — a bench that silently skipped the parallel storm
        // is a regression vector, same as a missing floor.
        for t in [1, 2, 4] {
            let _ = c.ns(&format!("actor_ping_storm/parallel/{t}"));
        }
        // The `env/cpus` entry says how parallel the measuring machine
        // was, so the checker enforces a floor the hardware can
        // actually express. On >= 8 CPUs the 8-thread storm must beat
        // the single-threaded fast path by >= 3x (the PR's acceptance
        // floor). With fewer CPUs that speedup is physically
        // impossible — 8 workers share the cores — so the check
        // degrades to an oversubscription ceiling: the 8-thread run
        // may cost at most 2.5x the fast path (measured 1.6-1.8x on a
        // 1-CPU container; this bounds coordination overhead, which is
        // what a work-stealing regression would inflate first).
        match c.ns("env/cpus") {
            Some(cpus) if cpus >= 8.0 => {
                println!("      env/cpus = {cpus:.0} (>= 8): enforcing the parallel speedup floor");
                c.speedup(
                    "actor_ping_storm/fast/enabled",
                    "actor_ping_storm/parallel/8",
                    3.0,
                );
            }
            Some(cpus) => {
                println!(
                    "      env/cpus = {cpus:.0} (< 8): speedup floor not expressible on this \
                     machine; enforcing the oversubscription ceiling instead"
                );
                c.ratio_at_most(
                    "actor_ping_storm/parallel/8",
                    "actor_ping_storm/fast/enabled",
                    2.5,
                );
            }
            None => {} // missing env/cpus already counted as a failure
        }
    }

    if run("query") {
        // The query engine is opt-in: a cloud without `attach_queries`
        // pays one `Option` check per advance, and an unobserved actor
        // hub pays nothing. The detached run is a strict subset of the
        // attached one, so the ratio sits below 1.0 and only approaches
        // the 1.05 ceiling if the detached path ever starts doing real
        // query work (the ISSUE's disabled-path overhead floor).
        c.ratio_at_most(
            "query_overhead/place_medical/detached",
            "query_overhead/place_medical/attached",
            1.05,
        );
        c.ratio_at_most(
            "query_overhead/ping_storm/detached",
            "query_overhead/ping_storm/attached",
            1.05,
        );
        // The engine's own operating costs must be in the artifact —
        // no floor yet, but a silently missing bench is a regression
        // vector, same as everywhere else in this file.
        let _ = c.ns("query/advance_quiet");
        let _ = c.ns("query/feed_1k_advance");
    }

    if run("failure") {
        // Lease-based detection replaces omniscient crash knowledge
        // with heartbeat bookkeeping inside every `advance`. The full
        // heal cycle (submit → crash → detect → re-place → converge)
        // must cost at most 1.05x the omniscient oracle — the detector
        // is a BTreeMap walk per poll, dwarfed by placement (measured
        // ~1.00x; the ceiling trips if observe() ever grows a scan).
        c.ratio_at_most(
            "failure/heal_cycle/lease",
            "failure/heal_cycle/omniscient",
            1.05,
        );
        // The detector's own poll cost must be in the artifact — no
        // floor yet, but a silently missing bench is a regression
        // vector, same as everywhere else in this file.
        let _ = c.ns("failure/detector_poll_100dev");
    }

    if run("extvm") {
        // ISSUE 10's headline budget: one compiled placement-policy
        // scoring call — argument marshalling included — in at most
        // 20 ns/iter (measured ~12-15 ns; the seed interpreter sat at
        // ~100 ns and the paper's extension-VM gap at 95x).
        c.at_most_ns("policy/extvm_score", 20.0);
        // The compiled backend must beat the interpreter by >= 4x on
        // policy scoring (measured ~7-8x) ...
        c.speedup("policy/extvm_score_interp", "policy/extvm_score", 4.0);
        // ... and by >= 1.2x on a local-variable loop, the shape least
        // favorable to the register IR (measured ~1.5x after the
        // BinStore fusion and jump-following passes).
        c.speedup(
            "extvm/sum_loop_100_interp",
            "extvm/sum_loop_100_compiled",
            1.2,
        );
        // The inline differential over every canned policy must report
        // exactly zero result/gas divergences.
        c.at_most_ns("extvm/gas_parity_violations", 0.0);
        // Compilation and the steady-state market epoch must be in the
        // artifact — no floor yet, but a silently missing bench is a
        // regression vector, same as everywhere else in this file.
        let _ = c.ns("extvm/compile_best_fit");
        let _ = c.ns("market/rebid_epoch");
    }

    if run("crypto") {
        // Device-key fusion, on any hardware: one HKDF-Extract of the
        // hardware root plus one expand per device must beat a full
        // `derive_key` per device by >= 2x over a 6,400-device fleet
        // (it saves 6 of 8 compressions per device; measured ~2.5-3.5x
        // with the per-key bookkeeping both variants share).
        c.speedup(
            "crypto/device_keys/per_device/6400",
            "crypto/device_keys/fused/6400",
            2.0,
        );
        let _ = c.ns("crypto/derive_key");
        // The `env/sha_ni` entry says whether the measuring CPU had the
        // SHA extensions. With them, hashing 4 KiB must be >= 3x faster
        // than the scalar compression function over the same blocks
        // (measured ~7-10x); without them both run the scalar code and
        // the floor is not expressible.
        match c.ns("env/sha_ni") {
            Some(v) if v >= 1.0 => {
                println!("      env/sha_ni = 1: enforcing the SHA-NI speedup floor");
                c.speedup("crypto/sha256_scalar/4096", "crypto/sha256/4096", 3.0);
            }
            Some(_) => {
                println!(
                    "      env/sha_ni = 0: the scalar path is the only one on this machine; \
                     SHA-NI speedup floor not enforced"
                );
                let _ = c.ns("crypto/sha256_scalar/4096");
                let _ = c.ns("crypto/sha256/4096");
            }
            None => {} // missing env/sha_ni already counted as a failure
        }
    }

    if c.failures == 0 {
        println!("bench_check: all thresholds hold");
        ExitCode::SUCCESS
    } else {
        println!("bench_check: {} threshold(s) violated", c.failures);
        ExitCode::FAILURE
    }
}

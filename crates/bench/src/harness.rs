//! Experiment-driver harness: the in-order trial fan-out plus
//! `--threads` CLI parsing.
//!
//! Experiments stay deterministic at any thread count by construction:
//!
//! 1. every trial derives its RNG seed from its *index* (not from any
//!    global stream shared across trials),
//! 2. each trial records into a private `Telemetry` hub and returns it
//!    (or any other result) from its closure,
//! 3. [`fan_out`] hands results back **in trial order**, regardless of
//!    which worker finished when, so the driver absorbs/merges them in
//!    the same order a serial run would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..trials)` across `threads` workers and returns the results
/// indexed by trial, exactly as a serial `(0..trials).map(f)` would.
///
/// Work is distributed by an atomic next-trial counter, so uneven trial
/// costs self-balance. With `threads <= 1` (or a single trial) no
/// threads are spawned and `f` runs inline on the caller's stack.
/// Determinism at any thread count is by construction: threads only
/// decide *who* computes a trial, never *what* it computes or where its
/// result lands.
pub fn fan_out<T, F>(threads: usize, trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || trials <= 1 {
        return (0..trials).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..trials).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(trials) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("fan_out slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("fan_out slot poisoned")
                .expect("every trial fills its slot")
        })
        .collect()
}

/// Parses a `--threads N` / `--threads=N` flag out of an argument list.
/// Returns the worker count (default 1) or an error message for a
/// malformed or missing value.
pub fn parse_threads<I, S>(args: I) -> Result<usize, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut threads = 1usize;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        let value = if arg == "--threads" {
            match iter.next() {
                Some(v) => v.as_ref().to_string(),
                None => return Err("--threads requires a value".to_string()),
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            v.to_string()
        } else {
            continue;
        };
        threads = value
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("invalid --threads value: {value:?}"))?;
    }
    Ok(threads)
}

/// [`parse_threads`] over the process arguments; prints the error and
/// exits with status 2 on a malformed flag.
pub fn threads_from_args() -> usize {
    match parse_threads(std::env::args().skip(1)) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_trial_order_at_any_thread_count() {
        let serial = fan_out(1, 40, |i| i * i);
        for threads in [2, 4, 8] {
            assert_eq!(fan_out(threads, 40, |i| i * i), serial);
        }
    }

    /// The driver shape every experiment binary relies on: per-trial
    /// private hubs, absorbed in trial order, produce an artifact that
    /// is byte-identical at any `--threads N`.
    #[test]
    fn absorbed_trial_hubs_are_identical_at_any_thread_count() {
        use udc_telemetry::{Labels, Telemetry};
        let run = |threads: usize| -> String {
            let main = Telemetry::enabled();
            let hubs = fan_out(threads, 12, |i| {
                let hub = Telemetry::enabled();
                // Trial index seeds the workload, never a shared stream.
                hub.incr("trial.ops", Labels::none(), (i as u64 + 3) * 7 % 11);
                hub.observe("trial.latency", Labels::none(), (i as u64 * 37) % 101);
                hub
            });
            for hub in &hubs {
                main.absorb(hub);
            }
            let ops = main.counter("trial.ops", &Labels::none());
            let lat = main.histogram("trial.latency", &Labels::none());
            format!("{ops} {lat:?}")
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        assert_eq!(fan_out(16, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(fan_out(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parse_accepts_both_flag_forms_and_defaults_to_one() {
        assert_eq!(parse_threads(Vec::<String>::new()), Ok(1));
        assert_eq!(parse_threads(["--threads", "8"]), Ok(8));
        assert_eq!(parse_threads(["--threads=4"]), Ok(4));
        assert_eq!(parse_threads(["other", "--threads", "2", "args"]), Ok(2));
    }

    #[test]
    fn parse_rejects_malformed_values() {
        assert!(parse_threads(["--threads"]).is_err());
        assert!(parse_threads(["--threads", "zero"]).is_err());
        assert!(parse_threads(["--threads=0"]).is_err());
        assert!(parse_threads(["--threads=-1"]).is_err());
    }
}

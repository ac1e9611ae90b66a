//! The benchmark's own test: every workload at the short `--quick`
//! length, twice with one seed, must pass all its checks and print the
//! same sim-clock identity byte for byte; a second seed must change the
//! generated inputs; and seed 1's identity must match the pinned one in
//! `identity-seed1.txt`, so a change that alters placements, repairs or
//! costs shows up here. When such a change is intended, regenerate the
//! file with `lcbench/pin-identity.sh`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["tenant_lifecycle", "fleet_churn", "heal_under_faults"];

struct Quick {
    identity: String,
    result: String,
}

fn quick(workload: &str, seed: u64) -> Quick {
    let out = Command::new(env!("CARGO_BIN_EXE_lcbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--quick"])
        .output()
        .expect("lcbench runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let identity = stdout
        .lines()
        .find_map(|l| l.strip_prefix("identity "))
        .unwrap_or_else(|| panic!("{workload}: no identity line in\n{stdout}"))
        .to_string();
    let result = stdout.lines().last().expect("a result line").to_string();
    Quick { identity, result }
}

/// The value of `"key":` in a one-line JSON object, as raw text.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let rest = json[json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len()..]
        .trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim()
}

#[test]
fn quick_runs_are_correct_and_repeat() {
    for w in WORKLOADS {
        let (a, b) = (quick(w, 1), quick(w, 1));
        for r in [&a, &b] {
            assert_eq!(field(&r.result, "correct"), "true", "{w}: {}", r.result);
            assert_eq!(field(&r.result, "failed"), "0", "{w}: {}", r.result);
        }
        assert_eq!(
            a.identity, b.identity,
            "{w}: identity differs between runs of one seed"
        );
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for w in WORKLOADS {
        let (a, b) = (quick(w, 1), quick(w, 2));
        assert_ne!(
            field(&a.identity, "inputs"),
            field(&b.identity, "inputs"),
            "{w}: seed 2 made seed 1's inputs"
        );
    }
}

#[test]
fn identity_matches_the_pinned_one() {
    let pinned = include_str!("../identity-seed1.txt");
    for w in WORKLOADS {
        let expected = pinned
            .lines()
            .find_map(|l| l.strip_prefix(w).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("{w} is not pinned"));
        assert_eq!(
            quick(w, 1).identity,
            expected,
            "{w}: sim-clock identity changed"
        );
    }
}

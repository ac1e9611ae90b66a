#!/usr/bin/env bash
# Rewrites identity-seed1.txt from the current code: seed 1's sim-clock
# identity of every workload at the --quick length. Run it only when a
# change is meant to alter placements, repairs or costs, and say so in
# the change's description.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline -q
bin="${CARGO_TARGET_DIR:-target}/release/lcbench"
for w in tenant_lifecycle fleet_churn heal_under_faults; do
    printf '%s %s\n' "$w" "$("$bin" --workload "$w" --seed 1 --seconds 0 --trace 0 --quick | sed -n 's/^identity //p')"
done > identity-seed1.txt

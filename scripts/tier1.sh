#!/usr/bin/env bash
# Tier-1 verification gate: the frozen benchmark's own tests, release
# build, full test suite, and a warnings-as-errors clippy pass over the
# whole workspace.
#
# Usage: scripts/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> bash crates/benchmark/run.sh --test (frozen benchmark vs the public API)"
# Plain rustc, ~40 s: compiles every crate and the benchmark against the
# public API — the fastest signal that a refactor broke a frozen call site.
bash crates/benchmark/run.sh --test

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --test chaos --release -q (all fault schedules)"
cargo test --test chaos --release -q

echo "==> cargo test --test policy --release -q (policy equivalence + determinism)"
cargo test --test policy --release -q

echo "==> cargo test -p cannikin-fleet --release -q (fleet control plane)"
cargo test -p cannikin-fleet --release -q

echo "==> perfgate vs committed BENCH_perf.json (10% ratio tolerance)"
cargo run --release -p cannikin-bench --bin perfgate -- \
    --baseline BENCH_perf.json --out target/BENCH_perf.json

echo "==> fleetgate vs committed BENCH_fleet.json (2% ratio tolerance)"
cargo run --release -p cannikin-bench --bin fleetgate -- \
    --baseline BENCH_fleet.json --out target/BENCH_fleet.json

echo "==> scenariogate vs committed BENCH_scenarios.json (2% tolerance)"
cargo run --release -p cannikin-bench --bin scenariogate -- \
    --baseline BENCH_scenarios.json --out target/BENCH_scenarios.json

echo "tier-1: OK"

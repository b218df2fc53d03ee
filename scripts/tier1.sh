#!/usr/bin/env bash
# Tier-1 verification gate, as named stages. CI runs one stage per job
# (.github/workflows/tier1.yml); with no argument every stage runs in order.
#
# Usage: scripts/tier1.sh [stage...]
#   benchmark  the frozen benchmark's own tests, then all four workloads
#              at smoke size (plain rustc, ~50 s)
#   build      release build, and proof that it resolved no registry crate
#   test       full workspace test suite
#   kernels    minidnn's suite again, optimised, under each GEMM kernel policy
#              (auto, off, avx2), after saying which tile auto is here
#   clippy     warnings-as-errors clippy pass over library, test and example code
#   doc        warnings-as-errors rustdoc
#   examples   every example built optimised and run to exit 0 (seconds)
#   chaos      every fault schedule (CANNIKIN_CHAOS_SCHEDULE narrows it)
#   policy     policy equivalence + determinism
#   fleet      fleet control plane
#   gate       fleet and scenario reports vs the committed BENCH_*.json
#   report     same-seed fleet traces must render byte-identical reports
set -euo pipefail

cd "$(dirname "$0")/.."

# Nothing is fetched: every dependency is a path crate, and a manifest that
# says otherwise should fail here, not reach for a registry.
export CARGO_NET_OFFLINE=true

ALL="benchmark build test kernels clippy doc examples chaos policy fleet gate report"

stage() {
    case "$1" in
    benchmark)
        # Compiles every crate and the benchmark against the public API —
        # the fastest signal that a refactor broke a frozen call site.
        bash crates/benchmark/run.sh --test
        # Every workload end to end, untraced, as the driver runs it: a
        # regression in the rank lifecycle shows in the real two, not in a
        # unit test; the simulated two check themselves that every round
        # reproduces the first bit for bit and that all six jobs finish.
        for workload in real-compute real-comm sim-plan fleet-stream; do
            bash crates/benchmark/run.sh --workload "$workload" --smoke --seconds 2 | tail -n 1 | grep -q '"correct":true' || {
                echo "tier1.sh: $workload --smoke did not end with \"correct\":true" >&2
                exit 1
            }
        done
        ;;
    build)
        cargo build --release
        # Path packages carry no `source`; a line here means a manifest
        # named a registry or git crate again, which the sandbox the work
        # happens in cannot fetch.
        if grep -n '^source = ' Cargo.lock; then
            echo "tier1.sh: Cargo.lock names a non-workspace package (above); the workspace builds from path crates only" >&2
            exit 1
        fi
        ;;
    test) cargo test --workspace -q ;;
    kernels)
        # Which tile `auto` is on this runner, first: without avx512f the
        # 12x32 tile is exercised by nothing below (its properties print
        # "skipped"), and the log should say so.
        cargo test -p minidnn --release -q --lib -- --exact --nocapture \
            tensor::matmul::simd::tests::auto_is_the_widest_tile_detected
        # The `test` stage compiles minidnn unoptimised; the `unsafe` SIMD
        # tiles and the loops that rely on the vectoriser ship optimised.
        cargo test -p minidnn --release -q
        # And with the scalar kernel as the process-wide default, so the
        # tests that pin no kernel of their own run on it too.
        CANNIKIN_SIMD=off cargo test -p minidnn --release -q
        # And with the 6x16 tile pinned: where `auto` is the AVX-512 tile
        # the narrow one is otherwise reached only through explicit guards.
        CANNIKIN_SIMD=avx2 cargo test -p minidnn --release -q
        ;;
    clippy) cargo clippy --workspace --all-targets -- -D warnings ;;
    doc) RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps ;;
    examples)
        # clippy --all-targets only type-checks them; the README sends a
        # reader here first, so each one must also run to the end. Two of
        # them write a trace and a report to the temp dir: keep that inside
        # the checkout.
        cargo build --release --examples
        mkdir -p target/examples-tmp
        for src in examples/*.rs; do
            name=$(basename "$src" .rs)
            TMPDIR="$PWD/target/examples-tmp" cargo run --release -q --example "$name" >/dev/null || {
                echo "tier1.sh: example $name did not exit 0" >&2
                exit 1
            }
        done
        ;;
    chaos) cargo test --test chaos --release -q ;;
    policy) cargo test --test policy --release -q ;;
    fleet) cargo test -p cannikin-fleet --release -q ;;
    gate)
        # The tolerance (2% on the simulated fleet and scenario numbers)
        # is the suite table's default.
        cargo run --release -p cannikin-bench --bin gate -- all --out target
        ;;
    report)
        # The insight CLI itself exits 2 if the offline SLO/anomaly reruns
        # disagree with the online verdicts recorded in either trace.
        for run in a b; do
            cargo run --release -p cannikin-bench --bin fleettrace -- --out "target/fleet_$run.jsonl" --seed 7
            cargo run --release -p cannikin-insight --bin insight -- \
                report "target/fleet_$run.jsonl" --html "target/fleet_$run.html" >"target/fleet_$run.txt"
        done
        diff target/fleet_a.txt target/fleet_b.txt
        diff target/fleet_a.html target/fleet_b.html
        ;;
    *)
        echo "tier1.sh: unknown stage \`$1\` (stages: $ALL)" >&2
        exit 2
        ;;
    esac
}

for name in ${*:-$ALL}; do
    echo "==> tier-1 stage: $name"
    stage "$name"
done
echo "tier-1: OK"

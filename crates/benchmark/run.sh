#!/usr/bin/env bash
# Builds the workspace and the benchmark with plain `rustc` against the
# stand-in crates in stubs/ (the sandbox has no crates.io registry, so
# `cargo build` cannot resolve rand/serde/crossbeam/parking_lot), then
# runs the benchmark binary with the arguments given.
#
# Usage, from the repository root:
#   bash crates/benchmark/run.sh --workload real-compute --seed 29 --seconds 10 --trace 0
#   bash crates/benchmark/run.sh suite --repeat 5 --out A.json   # every workload, as child processes
#   bash crates/benchmark/run.sh compare A.json B.json
#   bash crates/benchmark/run.sh --test     # the crate's unit tests
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
if [[ ! -f "$root/src/lib.rs" || ! -d "$root/crates/core" ]]; then
    echo "run.sh: $root is not a checkout of the repository (no src/lib.rs, crates/core)" >&2
    exit 3
fi
out="${CARGO_TARGET_DIR:-target}/benchmark"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
# Compiler and linker scratch files stay inside the checkout too.
export TMPDIR="$out/tmp"

rc() {
    rustc --edition 2021 -C opt-level=3 -C debuginfo=0 -L "$out" --out-dir "$out" "$@"
}

# lib <crate_name> <source> <extern crate>...
lib() {
    local name=$1 src=$2 externs=()
    shift 2
    for dep in "$@"; do externs+=(--extern "$dep=$out/lib$dep.rlib"); done
    rc --cap-lints allow --crate-type rlib --crate-name "$name" "${externs[@]}" "$src"
}

build() {
    cd "$root"
    rc --crate-type rlib --crate-name rand "$here/stubs/rand.rs" &
    rc --crate-type rlib --crate-name crossbeam "$here/stubs/crossbeam.rs" &
    rc --crate-type rlib --crate-name parking_lot "$here/stubs/parking_lot.rs" &
    rc --crate-type proc-macro --crate-name serde_derive "$here/stubs/serde_derive.rs"
    wait
    rc --crate-type rlib --crate-name serde --extern serde_derive="$out/libserde_derive.so" "$here/stubs/serde.rs"

    lib minidnn crates/dnn/src/lib.rs rand serde &
    lib cannikin_telemetry crates/telemetry/src/lib.rs parking_lot serde
    wait
    lib hetsim crates/sim/src/lib.rs rand serde cannikin_telemetry &
    lib cannikin_insight crates/insight/src/lib.rs parking_lot cannikin_telemetry
    lib cannikin_collectives crates/collectives/src/lib.rs crossbeam parking_lot rand cannikin_telemetry
    wait
    lib cannikin_core crates/core/src/lib.rs rand serde minidnn hetsim cannikin_collectives cannikin_telemetry \
        cannikin_insight
    lib cannikin_baselines crates/baselines/src/lib.rs rand hetsim cannikin_core &
    lib cannikin_workloads crates/workloads/src/lib.rs rand serde hetsim minidnn cannikin_core &
    lib cannikin_fleet crates/fleet/src/lib.rs cannikin_core cannikin_telemetry hetsim
    wait
    lib cannikin src/lib.rs minidnn cannikin_telemetry cannikin_insight cannikin_collectives hetsim cannikin_core \
        cannikin_fleet cannikin_baselines cannikin_workloads rand
}

# One digest over every source the build reads; a matching stamp skips it.
stamp=$(cd "$root" && find src crates -name '*.rs' -not -path 'crates/bench/*' -print0 | sort -z |
    xargs -0 cat "$here/run.sh" | sha256sum | cut -d' ' -f1)
if [[ ! -x "$out/benchmark" || "$(cat "$out/stamp" 2>/dev/null)" != "$stamp" ]]; then
    rm -f "$out/stamp"
    build >&2
    rc --crate-name benchmark --extern cannikin="$out/libcannikin.rlib" "$here/src/main.rs" >&2
    echo "$stamp" >"$out/stamp"
fi

if [[ "${1:-}" == "--test" ]]; then
    shift
    rc --test --crate-name benchmark_tests --extern cannikin="$out/libcannikin.rlib" "$here/src/main.rs" >&2
    exec "$out/benchmark_tests" "$@"
fi
exec "$out/benchmark" "$@"

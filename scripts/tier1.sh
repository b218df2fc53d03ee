#!/usr/bin/env bash
# Tier-1 verification gate, as named stages. CI runs one stage per job
# (.github/workflows/tier1.yml); with no argument every stage runs in order.
#
# Usage: scripts/tier1.sh [stage...]
#   benchmark  the frozen benchmark's own tests, then all four workloads
#              at smoke size (plain rustc, ~50 s)
#   build      release build, proof that it resolved no registry crate, and
#              that crates/core/src holds no unsafe and reads no environment,
#              that the live diagnostics path (recorder subscribers,
#              injected verdicts, the monitors, the online/offline
#              agreement) is not back, that only
#              TrainingSubject defines the run loops, that only HetPipe
#              implements it outside core, that EpochRecord is the one
#              epoch record, that the simulator draws its normals
#              without trig, that nothing outside demand.rs and the
#              benchmark calls the fleet's scaling-curve replay, that
#              no gradient-accumulation plumbing is back, and that no
#              removed option (LrScaler, Codec::F16, SimdPolicy::Avx512,
#              the FaultPlan presets, CommFaultPlan::lossy,
#              exploration_split, invalidate) is back, and that no removed
#              diagnostics or noise API (Histogram, InsightConfig's
#              fields, NoiseModel, noise_boxed, the fleet's SLO rules,
#              SloRule in telemetry or fleet) is back
#   test       full workspace test suite
#   kernels    minidnn's suite again, optimised, under each GEMM kernel policy
#              (auto, off, avx2), after saying which tile auto is here; then
#              the real-path golden under off and avx2
#   clippy     warnings-as-errors clippy pass over library, test and example code
#   doc        warnings-as-errors rustdoc
#   examples   every example built optimised and run to exit 0 (seconds)
#   chaos      every fault schedule (CANNIKIN_CHAOS_SCHEDULE narrows it)
#   policy     policy equivalence + determinism, and fig7's ordering; then
#              the goldens again on one CPU
#   fleet      fleet control plane
#   gate       fleet and scenario reports vs the committed BENCH_*.json; the
#              fleet report must be byte-equal
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
        # Insight reports what the analyzer decided; training never reads
        # a diagnostics verdict, so core must not link the insight crate.
        if cargo tree -p cannikin-core -e normal --prefix none | grep -n '^cannikin-insight '; then
            echo "tier1.sh: cannikin-core depends on cannikin-insight again (above)" >&2
            exit 1
        fi
        # The engine reads the thread CPU clock through minidnn's one FFI
        # call; core itself holds no `unsafe`.
        if git grep -n unsafe crates/core/src; then
            echo "tier1.sh: crates/core/src says unsafe (above); keep FFI and unsafe code in minidnn" >&2
            exit 1
        fi
        # Diagnostics are a function of the drained trace: nothing taps the
        # recorder while it records, no verdict is written into the stream,
        # and no report has an "online" half to agree with. (The frozen
        # benchmark is outside the check.)
        if git grep -nE '\b(subscribe|inject)\(|\bSubscriber(Guard)?\b|Monitor::install|\bSloMonitor\b|\bHealthReport\b|anomalies_match|verdicts_match|\.online\b|insight_anomalies|Event::(AnomalyDetected|SloViolation)' -- '*.rs' ':!crates/benchmark'; then
            echo "tier1.sh: the live diagnostics path is back (above); run analyze / replay_slos / report::build over the drained trace" >&2
            exit 1
        fi
        # One run loop: `TrainingSubject` provides "run n epochs" and "run
        # to the target" for every trainer; a definition anywhere else is a
        # second copy of it.
        loops='fn +(train_until|run_epochs|drive_until) *[(<]'
        if git grep -nE "$loops" -- ':!crates/core/src/engine/subject.rs'; then
            echo "tier1.sh: a run loop is defined outside engine/subject.rs (above); implement TrainingSubject" >&2
            exit 1
        fi
        # One epoch loop: every compared system that steps data-parallel
        # batches is a policy row over CannikinTrainer (crates/baselines
        # `System::build`); outside core only HetPipe, whose pipeline
        # physics differ, is a TrainingSubject of its own.
        if git grep -nE 'impl +TrainingSubject +for' -- '*.rs' ':!crates/core' ':!crates/baselines/src/hetpipe.rs'; then
            echo "tier1.sh: a TrainingSubject is implemented outside crates/core (above); build the system as a System row over CannikinTrainer" >&2
            exit 1
        fi
        # One epoch record: both engines and every baseline report
        # `EpochRecord`; a second per-epoch record type is a second copy of
        # it. (The frozen benchmark is outside the check.)
        records=$(git grep -nE 'struct +\w*Epoch(Report|Record)\b' -- '*.rs' ':!crates/benchmark')
        if [ "$(printf '%s\n' "$records" | wc -l)" -ne 1 ] || [[ "$records" != crates/core/src/engine/mod.rs:*'struct EpochRecord '* ]]; then
            printf '%s\n' "$records"
            echo "tier1.sh: the epoch record types are above; EpochRecord in crates/core/src/engine/mod.rs must be the only one" >&2
            exit 1
        fi
        # One normal sampler in the simulator: its log-normal noise is the
        # inverse normal CDF of one generator word (event.rs), with no trig.
        if git grep -nE '\.(sin|cos|sin_cos)\(' -- crates/sim/src; then
            echo "tier1.sh: crates/sim/src calls trig (above); hetsim draws its normals through event.rs's inverse normal CDF" >&2
            exit 1
        fi
        # The builders resolve builder > default; core reads no environment.
        if git grep -n 'std::env' crates/core/src; then
            echo "tier1.sh: crates/core/src reads the environment (above); knobs are builder settings" >&2
            exit 1
        fi
        # The fleet predicts a job's scaling knee by walking its planner
        # (DemandModel::scaling_curve); the replay is kept beside it only
        # as the prediction's test reference and the frozen benchmark's
        # probe, and nothing else may call it.
        if git grep -n 'measured_scaling_curve' -- '*.rs' ':!crates/benchmark' ':!crates/fleet/src/demand.rs'; then
            echo "tier1.sh: measured_scaling_curve is called outside demand.rs (above); read the knee off DemandModel::scaling_curve" >&2
            exit 1
        fi
        # No engine runs gradient accumulation, so no layer carries its
        # factor: a step is one synchronized batch everywhere. (The frozen
        # benchmark is outside the check.)
        if git grep -nE 'with_accumulation|simulate_microbatch|compute_span|\.accumulation\b|accumulation:' -- '*.rs' ':!crates/benchmark'; then
            echo "tier1.sh: gradient-accumulation plumbing is back (above); a step is one synchronized batch" >&2
            exit 1
        fi
        # Options no run set are gone and stay gone: the LR scaler (every
        # run used AdaScale), the f16 codec, the `avx512` SIMD spelling
        # (`auto` means the same), the named FaultPlan presets and
        # CommFaultPlan's `lossy` (the scenario registry composes the
        # primitives; `FaultPlan::` also matches `CommFaultPlan::`, and
        # `is_lossy` does not match), and two functions
        # only tests called. Table 5's `lr_scaler: "..."` strings in
        # crates/workloads are metadata and do not match.
        if git grep -nE 'LrScaler|\.lr_scaler\(|config\.lr_scaler|Codec::F16|SimdPolicy::Avx512|exploration_split|fn invalidate|(FaultPlan::|fn )(spot_preemption|diurnal_contention|straggler_onset|flaky_network|cluster_churn|lossy)\(' -- '*.rs' ':!crates/benchmark'; then
            echo "tier1.sh: a removed option is back (above); every run sets it one way, so it is a constant" >&2
            exit 1
        fi
        # Diagnostics keep only what a pass over records needs: quantiles
        # are exact nearest-rank samples (no bucketed Histogram), the
        # detector thresholds are constants (no InsightConfig field), the
        # noise law is the one LinearNoiseGrowth value (no NoiseModel
        # trait), and SLO rules are the caller's input to replay_slos, so
        # neither telemetry nor the fleet holds one.
        if git grep -nE '\bHistogram\b|\bNoiseModel\b|noise_boxed|slo_rules\(|queue_slo\(|\.slos\b|calibration_band|gns_band|gns_warmup|gns_patience|bucket_factor|bucket_warmup|bucket_patience' -- '*.rs' ':!crates/benchmark' ||
            git grep -n 'SloRule\|default_fleet_slos' -- crates/telemetry crates/fleet; then
            echo "tier1.sh: a removed diagnostics or noise API is back (above); see the comment on this check" >&2
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
        # The real-path golden holds one line set per GEMM family; the
        # `test` stage checks the one `auto` picks. `off` checks the scalar
        # lines on every runner, and `avx2` must reproduce the SIMD lines
        # bit for bit wherever they were written by the AVX-512 tile.
        for simd in off avx2; do
            CANNIKIN_SIMD=$simd cargo test -p cannikin-core --release -q --lib -- --exact \
                engine::parallel::tests::epochs_match_the_golden_digests
        done
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
    policy)
        cargo test --test policy --release -q
        # A long run of simulated steps streams through a window of parts
        # on every core (hetsim's `simulate_run`). On one CPU the same
        # goldens must come out of the one-thread path, and the streaming
        # equivalence test, which forces two to four threads, must finish:
        # a thread waiting for room in the window has to give the core
        # back to the one that visits.
        taskset -c 0 cargo test -p hetsim --release -q --test batch_digests --test stream
        taskset -c 0 cargo test --test policy --release -q
        ;;
    fleet) cargo test -p cannikin-fleet --release -q ;;
    gate)
        # The tolerance (2% on the simulated fleet and scenario numbers)
        # is the suite table's default.
        cargo run --release -p cannikin-bench --bin gate -- all --out target
        # The fleet report is pure simulation, so every host writes it byte
        # for byte; the scenario report's real cells depend on the GEMM
        # family (DESIGN.md, "Measurement") and keep the tolerance alone.
        cmp target/BENCH_fleet.json BENCH_fleet.json
        ;;
    report)
        # Two same-seed traces: the reports are a function of the payloads,
        # so their text and HTML must be byte-identical. The CLI exits
        # non-zero only on a usage or parse error.
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

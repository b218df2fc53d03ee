#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload — the comparison
# every performance claim in this repository rests on (ROADMAP "Open
# items", standing rules). The change is the checkout this script lives
# in; the parent is any other checkout, each built and run by its own
# crates/benchmark/run.sh from its own root.
#
# Usage: scripts/ab.sh <workload|all> <parent-checkout> [--pairs 10] [--seed S] [--seconds 20]
#
# `all` runs every workload BENCHMARK.json names, one after the other with
# the same flags and a summary each — what "no other workload got worse"
# takes — and exits non-zero if a side of any of them printed no result.
#
# One warm-up run per side is discarded first: the first run after idle is
# 2-3x slow on a shared host (and builds the side if it has to). Pairs then
# alternate which side goes first. Per end-to-end metric of BENCHMARK.json
# the summary gives each side's median with quartiles, the ratio of the
# medians, and how many pairs the change won and lost (a tie is neither). A
# run whose setup_s is more than twice its side's median is flagged as
# stalled, and the pairs it is in are left out of the wins. Per side it
# then prints the share of attempted operations that failed over the pairs
# and every distinct result_goodput a run of that side reported — the
# other two things a comparison is judged by besides the claimed metric.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <workload|all> <parent-checkout> [--pairs 10] [--seed S] [--seconds 20]" >&2
    exit 2
}

change=$(cd "$(dirname "$0")/.." && pwd)
[[ $# -ge 2 ]] || usage
workload=$1
parent=$(cd "$2" && pwd) || usage
shift 2
pairs=10 seed=1 seconds=20
while [[ $# -gt 0 ]]; do
    case "$1" in
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
    esac
    shift 2
done

if [[ $workload == all ]]; then
    status=0
    for name in $(sed -n '/"workloads"/p' "$change/BENCHMARK.json" | grep -o '{"name":"[^"]*","why"' | cut -d'"' -f4); do
        "$0" "$name" "$parent" --pairs "$pairs" --seed "$seed" --seconds "$seconds" || status=$?
        echo
    done
    exit "$status"
fi

# name:direction of every end-to-end metric, in the manifest's order.
metrics=$(sed -n '/"end_to_end"/p' "$change/BENCHMARK.json" |
    grep -o '"name":"[^"]*","unit":"[^"]*","better":"[^"]*"' |
    sed 's/"name":"\([^"]*\)".*"better":"\([^"]*\)"/\1:\2/' | tr '\n' ' ')
[[ -n $metrics ]] || { echo "ab.sh: no end_to_end metrics in $change/BENCHMARK.json" >&2; exit 3; }

# run <side> <pair> <position>: one untraced run; prints
# "side pair position attempted failed correct value..." and keeps it in $runs.
runs=""
run() {
    local side=$1 root result row name
    [[ $side == parent ]] && root=$parent || root=$change
    result=$(cd "$root" && bash crates/benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    [[ $result == *'"correct":'* ]] || {
        echo "ab.sh: the $side checkout printed no result; run crates/benchmark/run.sh --workload $workload in $root to see why" >&2
        exit 1
    }
    row="$side $2 $3 $(grep -o '"attempted":[0-9]*' <<<"$result" | cut -d: -f2) $(grep -o '"failed":[0-9]*' <<<"$result" | cut -d: -f2) $(grep -o '"correct":[a-z]*' <<<"$result" | cut -d: -f2)"
    for name in $metrics; do
        row+=" $(grep -o "\"${name%%:*}\":{\"value\":[^,]*" <<<"$result" | sed 's/.*://')"
    done
    runs+="$row"$'\n'
    echo "$row"
}

echo "ab.sh: $workload, seed $seed, ${seconds} s, $pairs pairs; parent $parent ($(git -C "$parent" rev-parse --short HEAD 2>/dev/null || echo '?')), change $change"
echo "columns: side pair position attempted failed correct $(sed 's/:[a-z]*//g' <<<"$metrics")"
run parent 0 warm-up
run change 0 warm-up
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run parent "$pair" first
        run change "$pair" second
    else
        run change "$pair" first
        run parent "$pair" second
    fi
done

awk -v metrics="$metrics" '
BEGIN {  # a row is side, pair, position, attempted, failed, correct, then the metrics
    m = split(metrics, spec, " ")
    for (c = 1; c <= m; c++) {
        if (spec[c] ~ /^setup_s:/) setup = c + 6
        if (spec[c] ~ /^result_goodput:/) goodput = c + 6
    }
}
function quantile(v, n, q,    h, lo) {  # linear interpolation between order statistics
    h = (n - 1) * q; lo = int(h)
    return lo + 1 < n ? v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) : v[n]
}
function summary(side, col, out,    n, v, p, i, x) {
    n = 0
    for (p = 1; p <= pairs; p++) {  # insertion sort: ten values, and no asort outside gawk
        x = value[side, p, col] + 0
        for (i = n++; i >= 1 && v[i] > x; i--) v[i + 1] = v[i]
        v[i + 1] = x
    }
    out["q1"] = quantile(v, n, 0.25); out["median"] = quantile(v, n, 0.5); out["q3"] = quantile(v, n, 0.75)
}
{
    if (!(($1, $goodput) in seen)) { seen[$1, $goodput] = 1; goodputs[$1] = goodputs[$1] " " $goodput }
}
$2 > 0 {
    if ($2 > pairs) pairs = $2
    for (c = 7; c <= NF; c++) value[$1, $2, c] = $c
    attempted[$1] += $4; failed[$1] += $5
    if ($5 != 0 || $6 != "true") bad = bad sprintf("  %s run of pair %d: failed %s, correct %s\n", $1, $2, $5, $6)
}
END {
    for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        summary(side, setup, q)
        for (p = 1; p <= pairs; p++) if (value[side, p, setup] > 2 * q["median"]) {
            stalled[p] = 1
            flags = flags sprintf("  %s run of pair %d: setup_s %.3g against a median of %.3g\n", side, p, value[side, p, setup], q["median"])
        }
    }
    printf "\n%-16s %-34s %-34s %-8s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "pairs the change"
    for (c = 1; c <= m; c++) {
        split(spec[c], nd, ":"); col = c + 6
        summary("parent", col, a); summary("change", col, b)
        wins = losses = counted = 0
        for (p = 1; p <= pairs; p++) if (!(p in stalled)) {
            counted++
            d = (value["change", p, col] - value["parent", p, col]) * (nd[2] == "lower" ? -1 : 1)
            if (d > 0) wins++
            if (d < 0) losses++
        }
        printf "%-16s %-34s %-34s %-8s won %d, lost %d of %d (%s is better)\n", nd[1], \
            sprintf("%.6g [%.6g, %.6g]", a["median"], a["q1"], a["q3"]), \
            sprintf("%.6g [%.6g, %.6g]", b["median"], b["q1"], b["q3"]), \
            a["median"] != 0 ? sprintf("x%.3f", b["median"] / a["median"]) : "-", wins, losses, counted, nd[2]
    }
    printf "stalled runs (setup_s > 2x the side median; their pairs are not counted):\n%s", flags == "" ? "  none\n" : flags
    printf "failed / attempted operations over the pairs:\n"
    for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        printf "  %s %d / %d (%.4g%%)\n", side, failed[side], attempted[side], attempted[side] ? 100 * failed[side] / attempted[side] : 0
    }
    printf "distinct result_goodput values, warm-up included:\n  parent%s\n  change%s\n", goodputs["parent"], goodputs["change"]
    if (bad != "") printf "runs with failed operations or a failed check:\n%s", bad
}' <<<"$runs"

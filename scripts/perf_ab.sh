#!/usr/bin/env bash
# A/B of the repository's benchmark (perfbench) between a base revision
# and the working tree, on this host.
#
# Builds perfbench twice, in two scratch copies: the base revision
# (`git archive`) and the working tree (tracked and untracked files that
# are not ignored). Then, for each workload, runs N pairs of
# `perfbench --seed 1 --seconds S`, alternating which side runs first, and
# prints for every metric the median and quartiles per side, the ratio of
# the medians, and the pairs the change won (in the metric's `better`
# direction from BENCHMARK.json). It also checks that each pair printed
# the same result digest.
#
# Usage: scripts/perf_ab.sh [--base REV] [--pairs N] [--seconds S]
#                           [--trace 0|1] [--scratch DIR] [WORKLOAD...]
#
#   --base REV     base revision (default: the merge-base of HEAD and
#                  main; when that is HEAD and the working tree is clean,
#                  HEAD~1, so a committed change is measured against its
#                  parent). Refuses to run when the base is HEAD and the
#                  working tree is clean: both sides would be the same.
#   --pairs N      interleaved pairs per workload (default 10)
#   --seconds S    measured seconds per run (default 20)
#   --trace T      perfbench --trace value (default 0; 1 adds per-layer
#                  metrics)
#   --scratch DIR  build and log directory (default $TMPDIR/perf_ab)
#   WORKLOAD...    default: every workload in BENCHMARK.json
#
# Run from anywhere inside the repository. Needs git, cargo and python3.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
base=""
pairs=10
seconds=20
trace=0
scratch="${TMPDIR:-/tmp}/perf_ab"
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --base) base=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --scratch) scratch=$2; shift 2 ;;
        -h|--help) sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; exit 0 ;;
        -*) echo "perf_ab: unknown flag $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
case "$pairs" in ''|*[!0-9]*|0) echo "perf_ab: --pairs must be a positive integer" >&2; exit 2 ;; esac
cd "$repo"
head_rev=$(git rev-parse HEAD)
clean=0
[ -z "$(git status --porcelain --untracked-files=normal)" ] && clean=1
if [ -z "$base" ]; then
    base=$(git merge-base HEAD main)
    if [ "$base" = "$head_rev" ] && [ "$clean" -eq 1 ]; then base=HEAD~1; fi
fi
if [ "$(git rev-parse "$base^{commit}")" = "$head_rev" ] && [ "$clean" -eq 1 ]; then
    echo "perf_ab: base $base is HEAD and the working tree is clean; both sides would be the same code" >&2
    exit 2
fi
base_rev=$(git rev-parse --short=12 "$base^{commit}")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

# Two fresh source copies, each built into its own target directory (kept
# between runs, so cargo rebuilds only what changed). The working-tree copy
# skips tracked files deleted in the working tree.
rm -rf "$scratch/runs"
mkdir -p "$scratch/runs"
for side in base change; do
    mkdir -p "$scratch/$side"
    find "$scratch/$side" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
done
git archive "$base_rev" | tar -x -C "$scratch/base"
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do
        if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
    done \
    | tar --null -T - -cf - | tar -x -C "$scratch/change"
for side in base change; do
    echo "perf_ab: building $side perfbench" >&2
    CARGO_TARGET_DIR="$scratch/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$scratch/$side/perfbench/Cargo.toml"
done

run_one() { # side workload pair
    local out="$scratch/runs/$2.$1.$3"
    (cd "$scratch/$1" && "$scratch/$1/target/release/perfbench" --workload "$2" \
        --seed 1 --seconds "$seconds" --trace "$trace" >"$out.stdout" 2>"$out.stderr")
}

echo "perf_ab: base $base_rev vs working tree; ${#workloads[@]} workload(s) x $pairs pair(s) x ${seconds}s" >&2
for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        for side in $order; do run_one "$side" "$w" "$i"; done
        echo "perf_ab: $w pair $i/$pairs done ($order)" >&2
    done
done

python3 - "$scratch/runs" "$pairs" "$base_rev" "${workloads[@]}" <<'EOF'
import json, statistics, sys

runs, pairs, base_rev, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
spec = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

def load(w, side, i):
    lines = open(f"{runs}/{w}.{side}.{i}.stdout").read().splitlines()
    digest = next((l.split()[2] for l in lines if l.startswith("digest = ")), None)
    return json.loads(lines[-1])["metrics"], digest

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"base {base_rev} vs working tree, {pairs} interleaved pair(s) per workload")
for w in workloads:
    results = [(load(w, "base", i), load(w, "change", i)) for i in range(1, pairs + 1)]
    digests = {(b[1], c[1]) for b, c in results}
    same = all(b == c for b, c in digests)
    print(f"\n== {w}  digest {'identical' if same else 'DIFFERS'}: {sorted(digests)}")
    print(f"{'metric':40} {'base median [q1-q3]':>32} {'change median [q1-q3]':>32} {'ratio':>7} {'won':>6}")
    for name in results[0][0][0]:
        b = [r[0][0][name]["value"] for r in results if name in r[0][0]]
        c = [r[1][0][name]["value"] for r in results if name in r[1][0]]
        if len(b) != pairs or len(c) != pairs:
            continue
        bq, cq = quartiles(b), quartiles(c)
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        won = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"
        won_s = f"{won}/{pairs}" if sign else "-"
        print(f"{name:40} {fmt(bq):>32} {fmt(cq):>32} {ratio:7.3f} {won_s:>6}")
EOF

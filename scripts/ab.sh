#!/usr/bin/env bash
# A/B comparison of one benchmark workload between a git revision and the
# working tree:
#
#   scripts/ab.sh <rev> <workload> <pairs>
#   scripts/ab.sh HEAD plan_scale 5
#
# Exports <rev> with `git archive` into `base/` of a fresh directory under
# $TMPDIR (default /tmp), and the working tree -- its tracked files and the
# untracked ones git does not ignore, as they are on disk -- into `head/`
# beside it, so both sides build from paths of the same shape. It then
# runs `benchmark/run.sh --workload <workload> --seconds 20 --trace 0`
# <pairs> times on each side, alternating them (the
# side that goes first alternates too, so neither always runs on a warmer
# host). Prints, per end-to-end metric, each side's median and quartiles
# over the pairs and in how many pairs the working tree was better, read
# from the results.json every run writes.
#
# Exports, not `git worktree`, so the repository's own metadata is left
# alone. Both sides build into their own target directory and write their
# results under the same temporary directory: nothing under benchmark/ is
# written. The directory is kept, and named at the end.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <rev> <workload> <pairs>" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
mkdir "$work/base" "$work/head"
git -C "$repo" archive --format=tar "$rev" | tar -x -C "$work/base"
echo "# base: $(git -C "$repo" rev-parse --short "$rev") exported to $work/base" >&2
# A tracked file deleted from the working tree is listed but not on disk.
git -C "$repo" ls-files -z --cached --others --exclude-standard |
    tar -C "$repo" --null --files-from=- --ignore-failed-read -cf - 2>/dev/null |
    tar -x -C "$work/head"
echo "# head: the working tree exported to $work/head" >&2

# run <side> <pair>: one benchmark run of side `base` or `head`.
run() {
    local side=$1 pair=$2
    CARGO_TARGET_DIR="$work/target-$side" bash "$work/$side/benchmark/run.sh" \
        --workload "$workload" --seconds 20 --trace 0 \
        --out "$work/$side-$pair" >"$work/$side-$pair.log"
    echo "# pair $pair: $side done" >&2
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run base "$i" && run head "$i"
    else
        run head "$i" && run base "$i"
    fi
done

python3 - "$repo/BENCHMARK.json" "$work" "$workload" "$pairs" <<'EOF'
import json, statistics, sys

spec, work, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
metrics = json.load(open(spec))["end_to_end"]

def values(side):
    runs = [json.load(open(f"{work}/{side}-{i}/results.json")) for i in range(pairs)]
    return [r["workloads"][workload]["end_to_end"] for r in runs]

base, head = values("base"), values("head")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':<16} {'base q1':>11} {'base med':>11} {'base q3':>11} "
      f"{'head q1':>11} {'head med':>11} {'head q3':>11} {'change':>8} {'wins':>6}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    b = [r[name]["value"] for r in base]
    h = [r[name]["value"] for r in head]
    bq, hq = quartiles(b), quartiles(h)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    change = (hq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
    print(f"{name:<16} {bq[0]:11.4g} {bq[1]:11.4g} {bq[2]:11.4g} "
          f"{hq[0]:11.4g} {hq[1]:11.4g} {hq[2]:11.4g} {change:+7.1f}% {wins:>3}/{pairs}")
EOF
echo "# runs and logs kept in $work" >&2

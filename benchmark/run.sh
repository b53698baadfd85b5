#!/usr/bin/env bash
# The benchmark's one entry point: build, then run.
#
#   bash benchmark/run.sh                       all workloads, untraced then traced
#   bash benchmark/run.sh --smoke               the same at tiny sizes (< 10 s)
#   bash benchmark/run.sh --workload serve_mix --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh --compare a.json b.json
#
# Builds `--release --offline --locked` into $CARGO_TARGET_DIR (default
# benchmark/target) and passes every argument on to the binary; see the
# top of src/main.rs for them. Results go to benchmark/out/ unless --out
# says otherwise. Cargo's own output goes to stderr, so stdout is the
# benchmark's alone.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# The output header names the commit when the checkout is a git one.
BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

exec "$target/release/pipeline-bench" --out "$here/out" "$@"

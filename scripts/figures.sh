#!/usr/bin/env bash
# Prints every figure table the bench binary models (`distal-bench all`)
# at 128 nodes; `headline` stays at 64. The tables are modeled, so the
# output is deterministic: it is committed as FIGURES.txt and CI fails
# when the two differ, so a change that moves a figure has to say so.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet -p distal-bench
./target/release/distal-bench all 128

#!/usr/bin/env bash
# Prints, per crate, the number of `pub` items and the Rust lines under
# src/ — the surface and size trend ROADMAP asks to keep visible. The
# output is committed as SURFACE.txt; CI fails when the two differ.
set -euo pipefail
cd "$(dirname "$0")/.."
items='^\s*pub (unsafe )?(fn|struct|enum|trait|type|const|static|mod|use) '
printf '%-18s %9s %9s\n' crate pub_items src_lines
pub_total=0 lines_total=0
for src in crates/*/src src; do
    name=$(basename "$(dirname "$src")") && [ "$src" = src ] && name=distal
    pub=$( (grep -rhE "$items" "$src" || true) | wc -l)
    lines=$(find "$src" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    printf '%-18s %9d %9d\n' "$name" "$pub" "$lines"
    pub_total=$((pub_total + pub)) lines_total=$((lines_total + lines))
done
printf '%-18s %9d %9d\n' total "$pub_total" "$lines_total"

#!/usr/bin/env bash
# Builds the benchmark from source (first run in a checkout compiles the
# workspace crates it links) and runs one workload:
#
#   bash perfbench/run.sh --workload solve-sweep --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; stdout carries the human-readable report
# and, as its last line, the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/perfbench" --out "$here/out" --spec "$here/../BENCHMARK.json" "$@"

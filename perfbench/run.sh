#!/usr/bin/env bash
# Build the real `mr2-serve` binary and the `perfbench` program from
# source, then run `perfbench`. Run from the repository root:
#
#   bash perfbench/run.sh --workload estimate_cold --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr, so the last line of stdout is perfbench's
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mr2-serve --bin mr2-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/mr2-serve" "$@"

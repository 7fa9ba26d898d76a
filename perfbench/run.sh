#!/usr/bin/env bash
# Builds the `rc` daemon and the benchmark harness from this checkout, then
# runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# checkout root); the harness keeps its snapshots, spans and result files
# under $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rightcrowd-bench --bin rc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --rc "$CARGO_TARGET_DIR/release/rc" "$@"

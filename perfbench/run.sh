#!/usr/bin/env bash
# Build the `lsi` binary and the benchmark from this checkout's sources,
# then run one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-exact --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's
# record line and its result line.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p lsi-cli --bin lsi >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lsi-perfbench" --lsi "$CARGO_TARGET_DIR/release/lsi" "$@"

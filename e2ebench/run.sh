#!/usr/bin/env bash
# Builds the CLI under test and the benchmark driver from source, then runs
# one measurement:
#
#   bash e2ebench/run.sh --workload batch-dense --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build). The last line printed is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p stmaker-cli >&2
cargo build --release --quiet --offline --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stmaker-bench" run "$@"

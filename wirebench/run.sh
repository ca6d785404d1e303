#!/usr/bin/env bash
# Builds `surveil` and the wirebench binary from source, then runs one
# benchmark invocation from the repository root:
#
#   bash wirebench/run.sh --workload steady_fleet --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p maritime --bin surveil 1>&2
cargo build --release --offline --quiet --manifest-path wirebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/wirebench" --surveil "$CARGO_TARGET_DIR/release/surveil" "$@"

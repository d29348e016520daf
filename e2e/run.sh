#!/usr/bin/env bash
# Builds the stock daemon and the benchmark from source, then runs the
# benchmark with the arguments given:
#
#   e2e/run.sh --workload warm_small --seed 1 --seconds 10 --trace 0
#   e2e/run.sh                 # all five workloads, end to end
#   e2e/run.sh --trace 1       # all five, per-layer table
#   e2e/run.sh test            # the benchmark's own unit tests + smoke
#
# Run it from the repository root. Both builds share one target
# directory ($CARGO_TARGET_DIR, default ./target) so `e2e` finds
# `divrd` beside itself.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr: stdout carries only the benchmark's.
cargo build --release --offline -p divr-service --bin divrd >&2
if [ "${1:-}" = "test" ]; then
    shift
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml" -- "$@"
fi
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"

#!/usr/bin/env bash
# Builds the benchmark once into a shared target directory and prints the
# path of the binary. Sourced by run.sh, aa.sh and spread.sh.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --quiet --release --manifest-path "$here/Cargo.toml"
export BENCH_BIN="$CARGO_TARGET_DIR/release/qcpa-benchmark"

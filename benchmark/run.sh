#!/usr/bin/env bash
# Builds once, then runs all four workloads untraced and traced and
# prints each run's metric table.
#   benchmark/run.sh [--smoke] [seed]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
source "$here/build.sh"
smoke=()
if [[ "${1:-}" == "--smoke" ]]; then
    smoke=(--smoke)
    shift
fi
seed="${1:-1}"
cd "$here/.."
for workload in tpch_dss tpcapp_oltp scale_alloc sim_cluster; do
    for trace in 0 1; do
        "$BENCH_BIN" --workload "$workload" --seed "$seed" --trace "$trace" "${smoke[@]}"
    done
done

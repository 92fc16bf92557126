#!/usr/bin/env bash
# A/A check: two sets of runs of the same build and seed, alternating
# order; fails if any end-to-end metric's medians differ by more than its
# bound, or a simulated metric differs at all.
#   benchmark/aa.sh [--runs N] [--seed K] [--seconds S] [workload...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
source "$here/build.sh"
exec python3 "$here/check.py" aa "$@"

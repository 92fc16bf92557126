#!/usr/bin/env bash
# Seed-to-seed spread of every end-to-end metric (interquartile range as
# a share of the median over seeds 1..N), next to its bound.
#   benchmark/spread.sh [--seeds N] [--seconds S] [workload...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
source "$here/build.sh"
exec python3 "$here/check.py" spread "$@"

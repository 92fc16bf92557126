#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints (warnings are errors),
# tests.
#
# Usage:
#   ./scripts/check.sh          # full gate (fmt, clippy, rustdoc,
#                               # every test, release goldens,
#                               # smokes, bench)
#   ./scripts/check.sh --fast   # inner-loop tier: fmt + clippy +
#                               # rustdoc + the source-policy test +
#                               # lib/unit tests, the storage property
#                               # suite, the controller end-to-end
#                               # suite, resilience + multilevel
#                               # conformance, the sim differential
#                               # suite, the release allocator goldens,
#                               # the allocation audit, the fault-loop
#                               # heap budget, the quick
#                               # allocator-bench corner and the
#                               # benchmark-crate smoke
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== cargo fmt --check =="
cargo fmt --all --check

# The static-analysis gate (DESIGN.md §11): the workspace lints of the
# root Cargo.toml, the disallowed methods and types of clippy.toml
# (wall clock, entropy, thread spawns, env reads, hash-ordered
# collections) and the panic lints every library crate root denies.
# Each exception is a reasoned `#[expect]` at its site.
echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links are checked too, so a link left dangling at a deleted
# or private item fails the gate.
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Fragment sets have one representation, `FragSet`. Fails on any
# `BTreeSet<FragmentId>` outside comments and `#[cfg(test)]` items in
# the allocator's crates; `QueryClass::fragments` is the one exception
# (the benchmark crate iterates it by reference).
echo "== one fragment-set type =="
awk '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*\/\// { next }
    /#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip {
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
        next
    }
    /BTreeSet<FragmentId>/ && !/^    pub fragments: BTreeSet<FragmentId>,$/ {
        print FILENAME ":" FNR ": " $0
        found = 1
    }
    END { exit found }
' crates/{core,sim,controller,matching}/src/*.rs ||
    { echo "BTreeSet<FragmentId> in production code: use FragSet" >&2; exit 1; }

# What no lint states: every crate inherits the workspace lints, every
# RNG is built from a seed, and the QCPA_* env keys match README.md.
echo "== source policies =="
cargo test -q --test policy

# The allocator's parent-recorded fingerprints, including the
# benchmark's scale_alloc instance, and its heap-allocation budget: both
# release-only (the debug build cross-checks every transfer against a
# full normalize). Then the fault-aware loop's peak-heap budget.
run_release_goldens() {
    echo "== allocator goldens (release) =="
    cargo test -q --release --test allocator_golden -- --include-ignored
    echo "== allocator heap-allocation audit (release) =="
    cargo test -q --release --test alloc_audit -- --include-ignored
    echo "== DeltaCost vs normalize above the debug guard (release) =="
    cargo test -q --release --test delta_differential -- --include-ignored
    echo "== fault-loop peak-heap budget (release) =="
    cargo test -q --release --test fault_memory
}

# benchmark/ is its own workspace, so `cargo test` never builds it: a
# public-signature change in a product crate passes every step above
# while breaking BENCHMARK.json's command. Build it against the working
# tree and run each workload at smoke size; a failed end-state check
# exits non-zero and reports "correct":false.
run_benchmark_smoke() {
    local workload out log
    log=$(mktemp)
    for workload in tpch_dss tpcapp_oltp scale_alloc sim_cluster; do
        echo "== benchmark crate smoke ($workload) =="
        if ! out=$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 1 --smoke 2>"$log") ||
            grep -q '"correct":false' <<<"$out"; then
            cat "$log" >&2
            echo "benchmark smoke failed on $workload: ${out##*$'\n'}" >&2
            rm -f "$log"
            exit 1
        fi
    done
    rm -f "$log"
}

# The end-to-end smokes every tier runs after its tests, each one row of
# the `qcpa-bench` command table; the tiers differ only in how many
# schedules the chaos soak sweeps.
run_smokes() {
    local chaos_runs=$1
    echo "== allocator bench corner (quick, paper-scale instance) =="
    QCPA_BENCH_QUICK=1 cargo run --release -q -p qcpa-bench -- bench_allocator
    # Exits nonzero if any run violates the conservation law
    # (completed + shed + timed_out == offered).
    echo "== resilience sweep smoke (fails on any lost request) =="
    QCPA_BENCH_QUICK=1 cargo run --release -q -p qcpa-bench -- fig_resilience
    # Randomized layered fault schedules (crashes, zone failures, gray
    # windows, partitions); exits nonzero on any invariant violation:
    # conservation, post-repair k-safety, trace stability.
    echo "== chaos soak ($chaos_runs layered schedules, fails on any violation) =="
    QCPA_CHAOS_RUNS=$chaos_runs cargo run --release -q -p qcpa-bench -- fig_chaos
    # Appends a quick-keyed entry to BENCH_sim.json (quick entries only
    # ever compare against each other).
    echo "== simulator throughput corner (quick, 16 backends / 20k events) =="
    QCPA_BENCH_QUICK=1 cargo run --release -q -p qcpa-bench -- bench_sim
    echo "== bench trajectory gate =="
    cargo run --release -q -p qcpa-bench -- bench_trend
    run_benchmark_smoke
}

if [[ "$FAST" == "1" ]]; then
    echo "== cargo test (fast tier) =="
    cargo test -q --workspace --lib
    # The differential lock on the column-at-a-time scan path: select,
    # update, aggregates and fragment round trips against Predicate::eval.
    echo "== storage property suite =="
    cargo test -q -p qcpa-storage --test properties
    # The controller's golden script and answer-invariance checks: the
    # lib tests above do not cover the request path end to end.
    echo "== controller end-to-end suite =="
    cargo test -q --test controller_e2e
    echo "== resilience + multilevel conformance =="
    cargo test -q --test conformance resilient_runs_conserve_and_replay_exactly
    cargo test -q --test conformance multilevel
    echo "== sim differential suite =="
    cargo test -q --test sim_equivalence
    run_release_goldens
    run_smokes 8
    echo "Fast checks passed."
    exit 0
fi

# Every test of the workspace, the conformance harness and the sim
# differential suite included.
echo "== cargo test =="
cargo test -q --workspace

run_release_goldens

run_smokes 64

echo "All checks passed."

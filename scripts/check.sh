#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints (warnings are errors),
# static analysis, tests.
#
# Usage:
#   ./scripts/check.sh          # full gate (fmt, clippy, audit, full test
#                               # matrix, conformance at both thread
#                               # counts, bench)
#   ./scripts/check.sh --fast   # inner-loop tier: fmt + clippy + audit +
#                               # lib/unit tests, the storage property
#                               # suite, the controller end-to-end
#                               # suite, resilience + multilevel
#                               # conformance and the release allocator
#                               # goldens at both thread counts, the
#                               # allocation audit, the quick
#                               # bench-matrix corner and the
#                               # benchmark-crate smoke
#   ./scripts/check.sh --deep   # fast tier + the test suite under
#                               # ThreadSanitizer and a Miri pass over
#                               # the threaded crate (each requires a
#                               # nightly toolchain with the matching
#                               # component; skipped with a warning
#                               # otherwise)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
DEEP=0
case "${1:-}" in
--fast) FAST=1 ;;
--deep) DEEP=1 ;;
esac

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# The static-analysis gate: exits nonzero on any unsuppressed finding.
# Two layers run in every tier — the lexical token rules (hash-ordered
# iteration in deterministic crates, wall-clock reads, ambient entropy,
# stray spawns, undocumented unsafe, panic-hygiene ratchet regressions,
# off-surface env reads; DESIGN.md §11) and the semantic AST/call-graph
# rules (determinism taint across job boundaries, lock-order inversions
# and guards held across blocking calls, hash-ordered float reductions,
# env-surface ↔ README bijection, hot-path panic reachability;
# DESIGN.md §16). `--timings` prints the per-phase analysis cost.
echo "== qcpa-audit (static analysis: lexical + semantic) =="
cargo run -q -p qcpa-audit -- --timings

run_tsan() {
    # TSan needs -Zbuild-std, i.e. a nightly toolchain with rust-src.
    if ! cargo +nightly --version >/dev/null 2>&1; then
        echo "WARNING: --deep skipped: no nightly toolchain installed" >&2
        return 0
    fi
    if ! rustup component list --toolchain nightly 2>/dev/null |
        grep -q '^rust-src (installed)'; then
        echo "WARNING: --deep skipped: nightly rust-src not installed" \
            "(rustup component add rust-src --toolchain nightly)" >&2
        return 0
    fi
    local host
    host=$(rustc -vV | sed -n 's/^host: //p')
    echo "== ThreadSanitizer (qcpa-par + conformance, nightly) =="
    # Scope to the threaded crate and the cross-thread conformance
    # harness: TSan slows execution ~10x, so the full matrix is out.
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        QCPA_THREADS=4 cargo +nightly test -q -p qcpa-par \
        -Zbuild-std --target "$host"
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        QCPA_THREADS=4 cargo +nightly test -q --test conformance \
        -Zbuild-std --target "$host"
}

run_miri() {
    # Miri interprets the program, so UB (data races, invalid aliasing,
    # uninitialized reads) is caught exactly, not probabilistically —
    # complementary to TSan. It is ~100x slower than native, so scope
    # to the one crate that owns all the unsafe/concurrency surface.
    if ! cargo +nightly --version >/dev/null 2>&1; then
        echo "WARNING: --deep Miri tier skipped: no nightly toolchain installed" >&2
        return 0
    fi
    if ! cargo +nightly miri --version >/dev/null 2>&1; then
        echo "WARNING: --deep Miri tier skipped: miri not installed" \
            "(rustup component add miri --toolchain nightly)" >&2
        return 0
    fi
    echo "== Miri (qcpa-par unit tests, nightly) =="
    QCPA_THREADS=2 cargo +nightly miri test -q -p qcpa-par --lib
}

# The hot-path rewrite's differential lockdown and the fault goldens
# must hold on both worker pools and both shard settings. (Both event
# queues are pitted against each other inside the suite, through
# `run_open_with`.)
run_sim_equivalence() {
    local threads shards
    for threads in 1 4; do
        for shards in 1 4; do
            echo "== sim differential suite (QCPA_THREADS=$threads, QCPA_SIM_SHARDS=$shards) =="
            QCPA_THREADS=$threads QCPA_SIM_SHARDS=$shards cargo test -q --test sim_equivalence
        done
    done
}

# The allocator's parent-recorded fingerprints, including the
# benchmark's scale_alloc instance, and its heap-allocation budget: both
# release-only (the debug build cross-checks every transfer against a
# full normalize).
run_allocator_goldens() {
    local threads
    for threads in 1 4; do
        echo "== allocator goldens, release (QCPA_THREADS=$threads) =="
        QCPA_THREADS=$threads cargo test -q --release --test allocator_golden -- --include-ignored
    done
    echo "== allocator heap-allocation audit (release) =="
    cargo test -q --release --test alloc_audit -- --include-ignored
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

# The end-to-end smokes every tier runs after its tests; the tiers
# differ only in how many schedules the chaos soak sweeps.
run_smokes() {
    local chaos_runs=$1
    echo "== allocator bench-matrix corner (quick, small instances) =="
    QCPA_BENCH_QUICK=1 cargo run --release -q -p qcpa-bench --bin bench_allocator
    # Exits nonzero if any run violates the conservation law
    # (completed + shed + timed_out == offered).
    echo "== resilience sweep smoke (fails on any lost request) =="
    QCPA_BENCH_QUICK=1 cargo run --release -q -p qcpa-bench --bin fig_resilience
    # Randomized layered fault schedules (crashes, zone failures, gray
    # windows, partitions); exits nonzero on any invariant violation:
    # conservation, post-repair k-safety, sharded bit-identity, trace
    # stability.
    echo "== chaos soak ($chaos_runs layered schedules, fails on any violation) =="
    QCPA_CHAOS_RUNS=$chaos_runs cargo run --release -q -p qcpa-bench --bin fig_chaos
    echo "== trace exporter smoke (byte-stable, parseable) =="
    cargo run --release -q -p qcpa-bench --bin trace_smoke
    # Appends a quick-keyed entry to BENCH_sim.json (quick entries only
    # ever compare against each other).
    echo "== simulator throughput corner (quick, 16 backends / 20k events) =="
    QCPA_BENCH_QUICK=1 cargo run --release -q -p qcpa-bench --bin bench_sim
    echo "== bench trajectory gate =="
    cargo run --release -q -p qcpa-bench --bin bench_trend
    run_benchmark_smoke
}

if [[ "$FAST" == "1" || "$DEEP" == "1" ]]; then
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
    echo "== resilience conformance (QCPA_THREADS=1) =="
    QCPA_THREADS=1 cargo test -q --test conformance resilient_runs_conserve_and_replay_exactly
    echo "== resilience conformance (QCPA_THREADS=4) =="
    QCPA_THREADS=4 cargo test -q --test conformance resilient_runs_conserve_and_replay_exactly
    echo "== multilevel conformance (QCPA_THREADS=1) =="
    QCPA_THREADS=1 cargo test -q --test conformance multilevel
    echo "== multilevel conformance (QCPA_THREADS=4) =="
    QCPA_THREADS=4 cargo test -q --test conformance multilevel
    run_allocator_goldens
    run_sim_equivalence
    run_smokes 8
    if [[ "$DEEP" == "1" ]]; then
        run_tsan
        run_miri
        echo "Deep checks passed."
    else
        echo "Fast checks passed."
    fi
    exit 0
fi

echo "== cargo test (QCPA_THREADS=1) =="
QCPA_THREADS=1 cargo test -q --workspace

echo "== cargo test (QCPA_THREADS=4) =="
QCPA_THREADS=4 cargo test -q --workspace

# The cross-allocator conformance harness must replay bit-identically at
# every worker-thread count — run it explicitly at both settings.
echo "== conformance harness (QCPA_THREADS=1) =="
QCPA_THREADS=1 cargo test -q --test conformance

echo "== conformance harness (QCPA_THREADS=4) =="
QCPA_THREADS=4 cargo test -q --test conformance

run_allocator_goldens

run_sim_equivalence

run_smokes 64

echo "All checks passed."

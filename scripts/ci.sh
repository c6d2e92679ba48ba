#!/usr/bin/env bash
# Staged CI pipeline: fmt -> build -> perfbench -> test -> soak -> clippy -> doc ->
# examples -> bench-gates.
#
# One stage, one responsibility; per-stage timing; a clean summary at the
# end; non-zero exit if anything failed.  `scripts/verify.sh` delegates
# here so the hand-run gate and CI can never drift.
#
# Usage:
#     scripts/ci.sh [stage ...]      # default: all stages in order
#
# Stages:
#     fmt          cargo fmt --all --check
#     build        cargo build --release --all-targets
#     perfbench    cargo test --release --offline --manifest-path perfbench/Cargo.toml
#                  (the repository benchmark is its own Cargo workspace that
#                  imports library items; its self-tests build the benchmark
#                  binary and run two `--pass-only` traced passes, which are
#                  `correct` only when every answer in its verdict table is
#                  right and the 10% phase-sum gate holds — so a change that
#                  breaks the benchmark's imports, or makes `core.decide`
#                  drift from the benchmark's rebuilt decision, fails here,
#                  not in a benchmark run); then one 5-s end-to-end
#                  `perfbench/run.sh` smoke run per workload (`cold_mix`,
#                  `warm_zipf`, `warm_routed`) against the served
#                  binaries, each of which must print `"correct": true`
#                  and `"failed": 0` (a run that answers rightly but drops
#                  or errors on some requests fails here too)
#     test         cargo test -q
#     soak         NONREC_SOAK_FAST=1 cargo test --release --test server_soak
#                  (bounded-cache server under 4-client eviction churn:
#                  monotone counters, capped occupancy, no busy storm —
#                  plus the replay-determinism gates: a recorded workload
#                  capture replayed twice must answer byte-identically,
#                  a capture replayed through a one-backend router must
#                  answer with the direct replay's bytes (the router's id
#                  splice under a deep pipelined stream), and a routed
#                  replay across a shard death must answer every captured
#                  id exactly once; release so it reuses the build
#                  stage's artifacts)
#     clippy       cargo clippy --all-targets -- -D warnings
#     doc          RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
#                  (broken intra-doc links and malformed rustdoc fail CI)
#     examples     run all examples/ binaries (a runtime panic must not ship)
#     bench-gates  run the gating benches (NONREC_BENCH_FAST=1), write fresh
#                  snapshots under target/ci/, diff them against the
#                  committed BENCH_*.json with scripts/bench_diff (after the
#                  bench_diff and net_lines self-tests)
#
# Env:
#     NONREC_CI_REFRESH=1   bench-gates copies the fresh snapshots over the
#                           committed baselines instead of failing on drift
#                           (the deliberate way to record an improvement)
#     BENCH_DIFF_TOL=0.10   relative tolerance of the snapshot diff
set -uo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt build perfbench test soak clippy doc examples bench-gates)
STAGES=("${@:-${ALL_STAGES[@]}}")

SUMMARY_NAMES=()
SUMMARY_RESULTS=()
FAILED=0

run_stage() {
    local name="$1"
    shift
    echo
    echo "==> stage: $name"
    local start end status
    start=$(date +%s)
    if "$@"; then
        status=ok
    else
        status=FAIL
        FAILED=1
    fi
    end=$(date +%s)
    SUMMARY_NAMES+=("$name")
    SUMMARY_RESULTS+=("$status $((end - start))s")
    [ "$status" = ok ]
}

stage_fmt() {
    cargo fmt --all --check
}

stage_build() {
    cargo build --release --all-targets
}

stage_perfbench() {
    cargo test --release --offline --manifest-path perfbench/Cargo.toml || return 1
    local workload out
    for workload in cold_mix warm_zipf warm_routed; do
        echo "-- perfbench smoke: $workload"
        out=$(bash perfbench/run.sh --workload "$workload" --seed 601 --seconds 5 --trace 0) || return 1
        echo "$out"
        grep -q '"correct": true' <<<"$out" || return 1
        grep -q '"failed": 0,' <<<"$out" || return 1
    done
}

stage_test() {
    cargo test -q
}

stage_soak() {
    NONREC_SOAK_FAST=1 cargo test -q --release --test server_soak
}

stage_clippy() {
    cargo clippy --all-targets -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
}

stage_examples() {
    local ex
    for ex in examples/*.rs; do
        ex="$(basename "$ex" .rs)"
        echo "-- example: $ex"
        cargo run --release -q --example "$ex" >/dev/null || return 1
    done
}

run_gated_bench() {
    local bench="$1" snapshot="$2"
    NONREC_BENCH_FAST=1 NONREC_BENCH_JSON="$PWD/target/ci/$snapshot" \
        cargo bench --bench "$bench" || return 1
    if [ "${NONREC_CI_REFRESH:-0}" = 1 ]; then
        cp "target/ci/$snapshot" "$snapshot" || return 1
        echo "bench_diff: $snapshot: refreshed baseline"
    else
        python3 scripts/bench_diff "$snapshot" "target/ci/$snapshot" || return 1
    fi
}

stage_bench_gates() {
    mkdir -p target/ci
    # The diff gate guards every snapshot below; prove the gate itself
    # still catches drift, dropped rows, and zero baselines before
    # trusting its verdicts.  The line counter that CHANGES.md figures come
    # from self-tests beside it.
    python3 scripts/bench_diff --self-test || return 1
    python3 scripts/net_lines --self-test || return 1
    # The evaluation target is the join-probe regression gate, containment
    # the pair-work gate, serve the throughput/backpressure/cache/skew gate;
    # each panics on an in-bench invariant violation and snapshots its
    # counters for the diff below.  datalog_in_ucq stays a smoke run.
    run_gated_bench evaluation BENCH_evaluation.json || return 1
    run_gated_bench containment BENCH_containment.json || return 1
    run_gated_bench serve BENCH_serve.json || return 1
    NONREC_BENCH_FAST=1 cargo bench --bench datalog_in_ucq || return 1
}

for stage in "${STAGES[@]}"; do
    case "$stage" in
        fmt) run_stage fmt stage_fmt ;;
        build) run_stage build stage_build ;;
        perfbench) run_stage perfbench stage_perfbench ;;
        test) run_stage test stage_test ;;
        soak) run_stage soak stage_soak ;;
        clippy) run_stage clippy stage_clippy ;;
        doc) run_stage doc stage_doc ;;
        examples) run_stage examples stage_examples ;;
        bench-gates) run_stage bench-gates stage_bench_gates ;;
        *) echo "ci.sh: unknown stage: $stage (known: ${ALL_STAGES[*]})" >&2; exit 2 ;;
    esac || break   # fail fast: later stages assume earlier ones
done

echo
echo "== ci summary"
for i in "${!SUMMARY_NAMES[@]}"; do
    printf '  %-12s %s\n' "${SUMMARY_NAMES[$i]}" "${SUMMARY_RESULTS[$i]}"
done
if [ "$FAILED" -ne 0 ]; then
    echo "ci: FAILED"
    exit 1
fi
echo "ci: OK"

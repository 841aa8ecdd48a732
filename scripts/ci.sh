#!/usr/bin/env bash
# Full local CI: build everything, lint, run the whole test suite, then
# the perf regression gates. This is what a commit must pass.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== clippy =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== rustfmt =="
# perfbench/ is its own workspace and is not covered by this check.
cargo fmt --check

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tests =="
cargo test -q

echo "== fault suite (incl. ignored long-runners) =="
cargo test -q -p integration --test fault_properties -- --include-ignored

echo "== reference crate stays dev-only =="
# crates/reference holds the one copy of each straight-line reference the
# golden tests and the engine/decision benches compare against. Only
# `bench` may take it as a normal dependency; every other user takes it as
# a dev-dependency, so no production build links it.
normal_users=$(cargo tree -q -e normal --workspace -i reference --prefix none | awk 'NR > 1 {print $1}' | sort -u)
if [[ "$normal_users" != "bench" ]]; then
    echo "reference is a normal dependency of: ${normal_users//$'\n'/ } (only bench may be)" >&2
    exit 1
fi

echo "== engine golden + proptest bit-identity =="
# The optimized event core (SoA + SIMD + calendar queue) must stay
# bit-identical to the reference engine (crates/reference), on the pinned
# fixed-seed workloads and on randomized property workloads.
cargo test -q -p gpu-sim --test golden_engine

echo "== decision golden + proptest bit-identity =="
# The decision hot path (buffered search + incremental order index + arena
# scratch) must stay bit-identical to the reference search and controller
# (crates/reference), on a fixture grid of searches, pinned fixed-seed
# replays and grid-quantised random queues, and a steady-state decide
# round must allocate nothing.
cargo test -q -p abacus-core --test golden_decisions
cargo test -q -p abacus-core --test decision_alloc --release

echo "== routing golden + determinism contracts =="
# The headroom router must match the embedded naive reference stream,
# degenerate to least-connections on homogeneous pools, keep serial and
# parallel cluster CSVs byte-identical (with and without the autoscaler),
# score via one batched forward, be unperturbed by telemetry, and keep its
# pinned record digests. The K8s path must match its pre-merge copy in
# crates/reference record for record.
cargo test -q -p cluster --test routing_golden
cargo test -q -p cluster --test k8s_golden

echo "== certification suites (quantile golden, conformal coverage, byte-identity) =="
# The uncertainty-aware certification stack: the mean and multi-head
# pinball trainers must match the scalar reference trainer
# (crates/reference; bit-for-bit in the single-chunk regime, 1e-9
# otherwise), that reference must match its pinned weight digests, and the
# batched gradient kernels must match its per-sample gradients.
# Split-conformal calibration must hit its coverage band on held-out data,
# and a run that merely *carries* a certifier with the `conformal` flag off
# must stay byte-identical to the pre-certification serving path. The
# trainer's register-resident fixed-width kernels must match the generic
# (zero-skipping) kernels bit for bit on every partial chunk and every
# SIMD tier the host has.
cargo test -q -p predictor --test golden_trainer
cargo test -q -p predictor --lib minibatch_grads_match_scalar_reference
cargo test -q -p predictor --lib fixed_width_kernels_match_generic_bit_for_bit
cargo test -q -p predictor --lib conformal
cargo test -q -p abacus-core --lib conformal
cargo test -q -p serving --lib certified
cargo test -q -p integration --test predictor_pipeline conformal_upper_bounds
cargo test -q -p integration --test scheduling_policies conformal_disabled

echo "== telemetry-disabled golden checksum =="
# The telemetry-instrumented serving loop with no Telemetry attached must
# stay byte-identical to the pre-telemetry loop — pinned by the no-fault
# golden trace checksum.
cargo test -q -p integration --test fault_properties golden_no_fault

echo "== trace export smoke =="
TRACE_OUT=$(mktemp -d)
trap 'rm -rf "$TRACE_OUT"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- trace --fast --out "$TRACE_OUT" >/dev/null
python3 -m json.tool "$TRACE_OUT/trace.json" >/dev/null || {
    echo "trace.json is not valid JSON" >&2
    exit 1
}
for f in ledger.csv pred_error.csv kernel_spans.csv; do
    [[ -s "$TRACE_OUT/$f" ]] || { echo "trace artifact $f missing/empty" >&2; exit 1; }
done
# Determinism contract: the prediction-error sweep emits byte-identical
# CSVs whether its cells run serially or on the rayon pool.
TRACE_SERIAL=$(mktemp -d)
trap 'rm -rf "$TRACE_OUT" "$TRACE_SERIAL"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- trace --fast --out "$TRACE_SERIAL" --serial >/dev/null
cmp "$TRACE_OUT/pred_error.csv" "$TRACE_SERIAL/pred_error.csv" || {
    echo "telemetry sweep diverged between serial and parallel runs" >&2
    exit 1
}
cmp "$TRACE_OUT/trace.json" "$TRACE_SERIAL/trace.json" || {
    echo "trace.json diverged between serial and parallel runs" >&2
    exit 1
}

echo "== run-health smoke =="
HEALTH_OUT=$(mktemp -d)
trap 'rm -rf "$TRACE_OUT" "$TRACE_SERIAL" "$HEALTH_OUT"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- health --fast --out "$HEALTH_OUT" >/dev/null
for f in health.json flight.json; do
    python3 -m json.tool "$HEALTH_OUT/$f" >/dev/null || {
        echo "$f is not valid JSON" >&2
        exit 1
    }
done
[[ -s "$HEALTH_OUT/health.csv" ]] || { echo "health.csv missing/empty" >&2; exit 1; }

echo "== bench gates =="
scripts/bench_check.sh

echo "CI passed"

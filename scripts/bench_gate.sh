#!/usr/bin/env bash
# Perf-regression gate (DESIGN.md §13): run the array sweep
# (probe_array), the adaptive-transient comparison (probe_adaptive),
# the batched-MAC fault sweep (probe_faults), the sparse-vs-dense
# solver sweep (probe_sparse), and the numerical-health cost/teeth
# probe (probe_health) with --trace, then
# `trace diff` each trace against its checked-in baseline under
# baselines/. Only deterministic counters (Newton iterations, step
# accept/reject, MAC job counts…) are gated — wall-clock never is — so
# the baselines are portable across machines. Baselines are the small
# `trace metrics` JSON extracts, not full traces, so they diff cleanly
# in git.
#
# The serving probe (probe_serve, DESIGN.md §16), the surrogate probe
# (probe_surrogate, DESIGN.md §17), and the observability probe
# (probe_observe, DESIGN.md §18) are gated differently: shed counts,
# wall-clock speedups, and recording overheads are load- and
# machine-dependent by design, so instead of a trace diff each
# self-gates against the hand-set *bounds* in baselines/probe_serve.json
# (max shed rate, max p99, min completions, min surrogate rate, zero
# untyped responses), baselines/probe_surrogate.json (min speedup, max
# certified envelope, zero check failures), and
# baselines/probe_observe.json (max flight-recording overhead, a
# breaker trip recovered from the incident dump, bounded tenant
# cardinality). Each probe compiles its bounds file in, so it takes no
# bounds argument; --update never rewrites those files. probe_observe's
# incident dumps land under $OUT/flight-dumps so a failing CI run can
# attach them as artifacts.
#
# Usage: scripts/bench_gate.sh [--update]
#   --update            rewrite baselines/ from this run instead of gating
#
# Environment:
#   BENCH_GATE_SOFT=1   report regressions but exit 0 (local inspection;
#                       CI runs the gate hard)
#   BENCH_GATE_OUT=dir  where traces/logs/summaries land
#                       (default target/bench-gate)
#
# Exit codes: 0 no regression (or soft mode), 1 regression, 2 harness or
# trace errors.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${BENCH_GATE_OUT:-target/bench-gate}
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --update) UPDATE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> building release benches and the trace CLI"
cargo build --release --offline -q -p ferrocim-bench -p ferrocim-serve -p ferrocim-traceview
TRACE=target/release/trace
mkdir -p "$OUT" baselines

BENCHES=(probe_array probe_adaptive probe_faults probe_sparse probe_health)
status=0
for bench in "${BENCHES[@]}"; do
  echo "==> $bench"
  "target/release/$bench" --trace "$OUT/$bench.jsonl" > "$OUT/$bench.log"
  "$TRACE" summary "$OUT/$bench.jsonl" > "$OUT/$bench.summary.txt"
  if [[ $UPDATE -eq 1 ]]; then
    "$TRACE" metrics "$OUT/$bench.jsonl" -o "baselines/$bench.json"
    echo "    baseline updated: baselines/$bench.json"
    continue
  fi
  if [[ ! -f "baselines/$bench.json" ]]; then
    echo "    missing baselines/$bench.json — run scripts/bench_gate.sh --update" >&2
    exit 2
  fi
  if "$TRACE" diff "baselines/$bench.json" "$OUT/$bench.jsonl"; then
    echo "    ok: no counter regressed past the threshold"
  else
    rc=$?
    if [[ $rc -eq 1 ]]; then
      echo "    REGRESSION in $bench (deltas above)" >&2
      status=1
    else
      exit "$rc"
    fi
  fi
done

SELF_GATED=(probe_serve probe_surrogate probe_observe)
declare -A SELF_GATED_OK=(
  [probe_serve]="serving contract held (typed responses, bounded tail, clean drain)"
  [probe_surrogate]="surrogate contract held (fast, certified, checked, domain-honest)"
  [probe_observe]="observability contract held (cheap recording, parseable dumps, bounded cardinality)"
)
declare -A SELF_GATED_ARGS=(
  [probe_observe]="--dump-dir $OUT/flight-dumps"
)
for bench in "${SELF_GATED[@]}"; do
  echo "==> $bench (self-gating against baselines/$bench.json)"
  # shellcheck disable=SC2086 — the per-bench extra args are word-split on purpose.
  if "target/release/$bench" --trace "$OUT/$bench.jsonl" \
      ${SELF_GATED_ARGS[$bench]:-} > "$OUT/$bench.log" 2>&1; then
    "$TRACE" summary "$OUT/$bench.jsonl" > "$OUT/$bench.summary.txt"
    echo "    ok: ${SELF_GATED_OK[$bench]}"
  else
    rc=$?
    "$TRACE" summary "$OUT/$bench.jsonl" > "$OUT/$bench.summary.txt" || true
    tail -n 20 "$OUT/$bench.log" >&2
    if [[ $rc -eq 1 ]]; then
      echo "    REGRESSION in $bench (contract violations above)" >&2
      status=1
    else
      exit "$rc"
    fi
  fi
done

if [[ $status -ne 0 && "${BENCH_GATE_SOFT:-0}" == "1" ]]; then
  echo "==> soft-fail mode: regression reported, build kept green" >&2
  exit 0
fi
if [[ $status -eq 0 && $UPDATE -eq 0 ]]; then
  echo "==> bench gate passed"
fi
exit $status

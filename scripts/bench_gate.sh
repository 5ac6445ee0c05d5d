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
# The observability probe (probe_observe, DESIGN.md §18) is gated
# differently: recording overhead is machine-dependent by design, so
# instead of a trace diff it self-gates against the hand-set *bounds*
# in baselines/probe_observe.json (max flight-recording overhead, a
# breaker trip recovered from the incident dump, bounded tenant
# cardinality). It compiles that file in, so it takes no bounds
# argument; --update never rewrites it. Its incident dumps land under
# $OUT/flight-dumps so a failing CI run can attach them as artifacts.
# The serving and surrogate contracts are crate tests
# (crates/serve/tests/service.rs, crates/surrogate/tests/properties.rs),
# and cimbench's serve_mix workload times the serving path.
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

echo "==> probe_observe (self-gating against baselines/probe_observe.json)"
if target/release/probe_observe --trace "$OUT/probe_observe.jsonl" \
    --dump-dir "$OUT/flight-dumps" > "$OUT/probe_observe.log" 2>&1; then
  "$TRACE" summary "$OUT/probe_observe.jsonl" > "$OUT/probe_observe.summary.txt"
  echo "    ok: observability contract held (cheap recording, parseable dumps, bounded cardinality)"
else
  rc=$?
  "$TRACE" summary "$OUT/probe_observe.jsonl" > "$OUT/probe_observe.summary.txt" || true
  tail -n 20 "$OUT/probe_observe.log" >&2
  if [[ $rc -eq 1 ]]; then
    echo "    REGRESSION in probe_observe (contract violations above)" >&2
    status=1
  else
    exit "$rc"
  fi
fi

if [[ $status -ne 0 && "${BENCH_GATE_SOFT:-0}" == "1" ]]; then
  echo "==> soft-fail mode: regression reported, build kept green" >&2
  exit 0
fi
if [[ $status -eq 0 && $UPDATE -eq 0 ]]; then
  echo "==> bench gate passed"
fi
exit $status

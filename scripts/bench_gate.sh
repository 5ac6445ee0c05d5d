#!/usr/bin/env bash
# Wall-clock gate (DESIGN.md §13): runs the two self-gating timing
# probes, each of which exits 1 when its paired-median overhead (or one
# of its contracts) breaks the bound compiled into it.
#
#   probe_health   certification overhead on the 256-cell row DC
#                  readout (8 % bound) plus the impossible-tolerance
#                  refusal teeth.
#   probe_observe  flight-recording overhead (2 %), a breaker trip
#                  recovered from its incident dump, bounded tenant
#                  cardinality, against baselines/probe_observe.json.
#                  Its incident dumps land under $OUT/flight-dumps so a
#                  failing CI run can attach them as artifacts.
#
# Deterministic solver-work counts are not gated here: they are exact
# crate tests (crates/bench/tests/counter_gates.rs) that run under
# `cargo test`.
#
# Usage: scripts/bench_gate.sh
#
# Environment:
#   BENCH_GATE_OUT=dir  where traces, logs, summaries and the probes'
#                       results/*.json land (default target/bench-gate);
#                       the tracked results/ is never written
#
# Exit codes: 0 every bound held, 1 a bound broke, 2 harness or trace
# errors.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${BENCH_GATE_OUT:-target/bench-gate}
if [[ $# -ne 0 ]]; then
  echo "usage: scripts/bench_gate.sh" >&2
  exit 2
fi

echo "==> building release benches and the trace CLI"
cargo build --release --offline -q -p ferrocim-bench -p ferrocim-traceview
TRACE=target/release/trace
mkdir -p "$OUT/results"
export FERROCIM_RESULTS_DIR="$OUT/results"

status=0
# run_probe NAME [ARGS...]: runs one self-gating probe with a trace.
run_probe() {
  local bench=$1
  shift
  echo "==> $bench"
  local rc=0
  "target/release/$bench" --trace "$OUT/$bench.jsonl" "$@" > "$OUT/$bench.log" 2>&1 || rc=$?
  "$TRACE" summary "$OUT/$bench.jsonl" > "$OUT/$bench.summary.txt" || true
  if [[ $rc -eq 0 ]]; then
    echo "    ok: every bound held"
    return
  fi
  tail -n 20 "$OUT/$bench.log" >&2
  if [[ $rc -ne 1 ]]; then
    exit "$rc"
  fi
  echo "    REGRESSION in $bench (violations above)" >&2
  status=1
}
run_probe probe_health
run_probe probe_observe --dump-dir "$OUT/flight-dumps"

if [[ $status -eq 0 ]]; then
  echo "==> bench gate passed"
fi
exit $status

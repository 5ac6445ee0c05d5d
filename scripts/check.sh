#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, then the tier-1 build+test
# sweep from ROADMAP.md. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> clippy (no unwrap/expect in units+device+telemetry+spice+cim+surrogate+nn+traceview+serve lib code)"
cargo clippy --offline --no-deps -p ferrocim-units -p ferrocim-device -p ferrocim-telemetry \
  -p ferrocim-spice -p ferrocim-cim -p ferrocim-surrogate -p ferrocim-nn -p ferrocim-traceview \
  -p ferrocim-serve \
  --lib -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> cargo doc (rustdoc warnings are errors; our crates only, not vendor/)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps \
  -p ferrocim-units -p ferrocim-device -p ferrocim-telemetry \
  -p ferrocim-spice -p ferrocim-cim -p ferrocim-surrogate -p ferrocim-nn -p ferrocim-traceview \
  -p ferrocim-serve -p ferrocim-bench -p ferrocim

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

echo "==> telemetry + traceview suites (Prometheus golden, render proptest, trace CLI)"
cargo test -q --offline -p ferrocim-telemetry -p ferrocim-traceview

echo "==> nn + cim suites (CIM parity goldens, packed-kernel and sampling proptests)"
cargo test -q --offline -p ferrocim-nn -p ferrocim-cim

echo "==> failure-injection suite (full backtraces)"
RUST_BACKTRACE=1 cargo test -q --offline -p ferrocim-spice --test failure_injection

echo "==> all checks passed"

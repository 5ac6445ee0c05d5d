#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, docs, the release build, then
# every test suite of the workspace's own crates. Run from anywhere
# inside the repo.
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

echo "==> release build"
cargo build --release --offline

echo "==> every workspace test suite, vendored crates excluded (full backtraces)"
RUST_BACKTRACE=1 cargo test -q --offline --workspace --exclude criterion --exclude proptest \
  --exclude rand --exclude serde --exclude serde_derive --exclude serde_json

echo "==> all checks passed"

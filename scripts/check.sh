#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, docs, the release build, a
# short run of every cimbench workload (each must report correct
# output), then every test suite of the workspace's own crates. Run
# from anywhere inside the repo.
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

echo "==> benchmark build (cimbench is its own package, outside the workspace)"
cargo build --release --offline --manifest-path cimbench/Cargo.toml --bins

echo "==> benchmark smoke: every cimbench workload must report correct output"
for workload in row_transient mc_variation vgg_cim serve_mix; do
  last=$(cimbench/target/release/cimbench --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  case "$last" in
    '{"correct": true,'*) echo "    $workload: correct" ;;
    *) echo "    $workload: output check failed: $last" >&2; exit 1 ;;
  esac
done

echo "==> every workspace test suite, vendored crates excluded (full backtraces)"
RUST_BACKTRACE=1 cargo test -q --offline --workspace --exclude proptest \
  --exclude rand --exclude serde --exclude serde_derive --exclude serde_json

echo "==> all checks passed"

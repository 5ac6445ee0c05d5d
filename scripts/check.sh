#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, docs, the release build, the
# figure artifacts (regenerated and compared byte for byte with
# results/), a short run of every cimbench workload (each must report
# correct output), then every test suite of the workspace's own crates.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> lockfiles: both manifests resolve without rewriting their Cargo.lock"
# Every later cargo step passes --locked too; cargo fmt takes no such
# flag, so the lockfiles are checked before it runs.
cargo metadata --locked --offline --format-version 1 > /dev/null
cargo metadata --locked --offline --format-version 1 --manifest-path cimbench/Cargo.toml > /dev/null

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --locked --offline --workspace --all-targets -- -D warnings

echo "==> clippy (no unwrap/expect in units+device+telemetry+spice+cim+surrogate+nn+traceview+serve lib code)"
cargo clippy --locked --offline --no-deps -p ferrocim-units -p ferrocim-device -p ferrocim-telemetry \
  -p ferrocim-spice -p ferrocim-cim -p ferrocim-surrogate -p ferrocim-nn -p ferrocim-traceview \
  -p ferrocim-serve \
  --lib -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> cargo doc (rustdoc warnings are errors; our crates only, not vendor/)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --offline --no-deps \
  -p ferrocim-units -p ferrocim-device -p ferrocim-telemetry \
  -p ferrocim-spice -p ferrocim-cim -p ferrocim-surrogate -p ferrocim-nn -p ferrocim-traceview \
  -p ferrocim-serve -p ferrocim-bench -p ferrocim

echo "==> release build"
cargo build --release --locked --offline

echo "==> figure artifacts: a fresh run must equal results/ byte for byte"
# Every deterministic artifact whose default run writes it. The tracked
# table2_summary.json carries the --accuracy column (minutes of
# training), so only its schema is checked (crates/bench/tests).
cargo build --release --locked --offline -q -p ferrocim-bench --bins
artifacts=$(mktemp -d)
trap 'rm -rf "$artifacts"' EXIT
for bin in ablation_feedback ablation_multilevel ablation_write_verify fig1_fefet_iv \
    fig3_cell_fluctuation fig4_baseline_overlap fig7_proposed_cell fig8_proposed_array \
    fig9_process_variation table1_vgg_structure; do
  if ! FERROCIM_RESULTS_DIR="$artifacts" "target/release/$bin" > "$artifacts/$bin.log" 2>&1; then
    tail -n 20 "$artifacts/$bin.log" >&2
    exit 1
  fi
  if ! cmp -s "$artifacts/$bin.json" "results/$bin.json"; then
    echo "    $bin: a fresh run differs from results/$bin.json" >&2
    exit 1
  fi
  echo "    $bin: identical"
done

echo "==> benchmark build (cimbench is its own package, outside the workspace)"
cargo build --release --locked --offline --manifest-path cimbench/Cargo.toml --bins

echo "==> benchmark smoke: every cimbench workload must report correct output"
# Seed-1 output digests. The solver workloads' digests do not depend on
# the thread count, so any change to them is a change in results.
# serve_mix's round-0 digest depends on its client count (one client per
# core), so it is pinned per client count; other counts are not pinned.
declare -A want_digest=(
  [row_transient]=a58dfa80bea738af
  [mc_variation]=991cb606b126cea6
  [vgg_cim]=1ce36586d8517e19
)
declare -A serve_mix_digest=(
  [1]=eb0e7992b9ca16bc
  [2]=2958771f7336e10b
)
for workload in row_transient mc_variation vgg_cim serve_mix; do
  out=$(cimbench/target/release/cimbench --workload "$workload" --seed 1 --seconds 2 --trace 0)
  last=$(printf '%s\n' "$out" | tail -n 1)
  case "$last" in
    '{"correct": true,'*) echo "    $workload: correct" ;;
    *) echo "    $workload: output check failed: $last" >&2; exit 1 ;;
  esac
  want=${want_digest[$workload]:-}
  if [ "$workload" = serve_mix ]; then
    clients=$(printf '%s\n' "$out" | sed -n 's/^ *\([0-9][0-9]*\) closed-loop clients.*/\1/p' | head -n 1)
    want=${clients:+${serve_mix_digest[$clients]:-}}
    [ -n "$want" ] || echo "    serve_mix: digest not pinned for ${clients:-an unknown number of} clients"
  fi
  if [ -n "$want" ]; then
    got=$(printf '%s\n' "$out" | sed -n 's/^ *digest .*: \([0-9a-f]\{16\}\)$/\1/p' | head -n 1)
    if [ "$got" != "$want" ]; then
      echo "    $workload: digest $got, expected $want" >&2
      exit 1
    fi
    echo "    $workload: digest $got"
  fi
done

echo "==> every workspace test suite, vendored crates excluded (full backtraces)"
RUST_BACKTRACE=1 cargo test -q --locked --offline --workspace --exclude proptest \
  --exclude rand --exclude serde --exclude serde_derive --exclude serde_json

echo "==> library size and settable pub fields (reported, not gated)"
scripts/size.sh

echo "==> all checks passed"

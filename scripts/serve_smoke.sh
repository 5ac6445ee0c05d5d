#!/usr/bin/env bash
# CI smoke test for the serving layer: boot `ferrocim-serve` on an
# ephemeral port, drive one MAC request plus /healthz, /metrics, and
# every /debug/* introspection endpoint through its built-in TCP
# client, and shut down cleanly. Everything runs in-process via
# `--self-check`, so there is no curl dependency and no fixed port to
# collide on. The flight recorder is armed with a dump directory so
# the check also covers the /debug/flight stream; any incident dumps
# a failing run leaves behind sit under target/serve-smoke-flight for
# CI to attach as artifacts.
#
# Exit codes: 0 smoke passed, 2 boot/calibration/check failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building ferrocim-serve"
cargo build --release --locked --offline -q -p ferrocim-serve

echo "==> self-check: boot, MAC request, /healthz, /metrics, /debug/*, shutdown"
target/release/ferrocim-serve --self-check --flight 256 --flight-dump target/serve-smoke-flight

echo "==> serve smoke passed"

#!/usr/bin/env bash
# Library size: lines and public items of the workspace's library code.
# Counts every `.rs` file under `crates/*/src` except `bin/`, each read
# up to its first `#[cfg(test)]` (the unit tests that follow are not
# library code). Public items are `pub fn|struct|enum|trait|const|static|
# type|mod` declarations: first the top-level ones, then all of them,
# indented ones (methods, nested items) included.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

lib() {
  find crates/*/src -name '*.rs' -not -path '*/bin/*' | sort |
    xargs awk 'FNR == 1 { in_lib = 1 } /#\[cfg\(test\)\]/ { in_lib = 0 } in_lib'
}
items='pub (fn|struct|enum|trait|const|static|type|mod) '
printf 'library lines:        %s\n' "$(lib | wc -l)"
printf 'top-level pub items:  %s\n' "$(lib | grep -cE "^$items")"
printf 'all pub items:        %s\n' "$(lib | grep -cE "^[[:space:]]*$items")"

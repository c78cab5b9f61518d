#!/usr/bin/env bash
# Parity check: runs a reproduction bench with --csv-dir into a temp
# directory and byte-compares every file the checked-in baseline has. Each
# baseline directory was captured immediately before a rewrite of the paths
# behind it (bench/CMakeLists.txt says which), so a pass proves those paths
# still produce bit-identical tables. The fleet baselines include the
# open-loop SLO epilogue tables (fleet_scenario_slo*.csv/json). A file the
# bench emits but the baseline directory lacks is not compared: pinning a
# new output means adding its baseline file.
#
# Usage: check_parity.sh <baseline-dir> <bench-binary> [bench args...]
set -euo pipefail

BASE="${1:?usage: check_parity.sh <baseline-dir> <bench-binary> [args...]}"
shift

TMP="$(mktemp -d /tmp/pas-parity.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

"$@" --csv-dir "$TMP" >/dev/null

status=0
for f in "$BASE"/*; do
  name="$(basename "$f")"
  if ! cmp -s "$f" "$TMP/$name"; then
    echo "PARITY MISMATCH: $name" >&2
    diff -u "$f" "$TMP/$name" >&2 | head -20 || true
    status=1
  fi
done
exit $status

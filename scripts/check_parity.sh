#!/usr/bin/env bash
# Parity check: runs a reproduction bench with --csv-dir into a temp
# directory and byte-compares what it wrote with the checked-in baseline
# directory. Each baseline directory was captured immediately before a
# rewrite of the paths behind it (bench/CMakeLists.txt says which), so a pass
# proves those paths still produce bit-identical tables. The fleet baselines
# include the open-loop SLO epilogue tables (fleet_scenario_slo*.csv/json).
# The check fails on a baseline file the bench did not reproduce, on a file
# the bench wrote that has no baseline (each is named), and on an empty or
# missing baseline directory.
#
# Usage: check_parity.sh <baseline-dir> <bench-binary> [bench args...]
set -euo pipefail
shopt -s nullglob

BASE="${1:?usage: check_parity.sh <baseline-dir> <bench-binary> [args...]}"
shift

baselines=("$BASE"/*)
if [ "${#baselines[@]}" -eq 0 ]; then
  echo "PARITY: no baseline files in $BASE" >&2
  exit 1
fi

TMP="$(mktemp -d /tmp/pas-parity.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

"$@" --csv-dir "$TMP" >/dev/null

status=0
for f in "${baselines[@]}"; do
  name="$(basename "$f")"
  if ! cmp -s "$f" "$TMP/$name"; then
    echo "PARITY MISMATCH: $name" >&2
    diff -u "$f" "$TMP/$name" >&2 | head -20 || true
    status=1
  fi
done
for f in "$TMP"/*; do
  name="$(basename "$f")"
  if [ ! -e "$BASE/$name" ]; then
    echo "PARITY UNPINNED: $name has no baseline in $BASE" >&2
    status=1
  fi
done
exit $status

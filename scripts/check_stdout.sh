#!/usr/bin/env bash
# Stdout pin: runs <binary> [args...] and byte-compares its standard output
# with the checked-in <baseline> file. On a mismatch it prints the head of
# the diff and fails; a non-zero exit of the binary fails too.
#
# Usage: check_stdout.sh <baseline> <binary> [args...]
set -euo pipefail

BASE="${1:?usage: check_stdout.sh <baseline> <binary> [args...]}"
shift
[ -s "$BASE" ] || { echo "STDOUT: baseline $BASE is missing or empty" >&2; exit 1; }

OUT="$(mktemp /tmp/pas-stdout.XXXXXX)"
trap 'rm -f "$OUT"' EXIT

"$@" >"$OUT"

if ! cmp -s "$BASE" "$OUT"; then
  echo "STDOUT MISMATCH: $(basename "$BASE")" >&2
  diff -u "$BASE" "$OUT" | head -20 >&2 || true
  exit 1
fi

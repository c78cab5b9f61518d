#!/usr/bin/env bash
# Bad-flag check: runs <binary> [base args...] once per "<flag> <value>" case
# given after `--`, and fails unless every run exits 2 with an error that
# names the flag and quotes the value.
#
# Usage: check_bad_flags.sh <binary> [base args...] -- <flag> <value> [...]
set -uo pipefail

BIN="${1:?usage: check_bad_flags.sh <binary> [base args...] -- <flag> <value> [...]}"
shift
base=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  base+=("$1")
  shift
done
[ $# -gt 0 ] && shift  # the --

status=0
while [ $# -ge 2 ]; do
  flag="$1"
  value="$2"
  shift 2
  err="$("$BIN" "${base[@]}" "$flag" "$value" 2>&1 >/dev/null)"
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "BAD FLAG ACCEPTED: $flag '$value' exited $code, expected 2" >&2
    status=1
  elif [[ "$err" != *"$flag"*"'$value'"* ]]; then
    echo "BAD FLAG UNNAMED: $flag '$value' gave: $err" >&2
    status=1
  fi
done
exit $status

#!/usr/bin/env bash
# Fleet measurement sweeps over the working tree's bench_fleet_scenario.
# Each mode builds the bench into build-ab/ (RelWithDebInfo) and writes one
# BENCH_*.json at the repo root.
#
# Shard-sweep mode (emits BENCH_fleet.json):
#   scripts/bench_ab.sh fleet-sweep
#     Wall-times `bench_fleet_scenario --profile diurnal` for the current
#     tree over a devices x shards grid (default 64/256/1000 devices at
#     1 and 4 shards) and writes the grid plus host info to AB_OUT
#     (default: BENCH_fleet.json in the repo root).
#   AB_FLEET_DEVICES  device counts       (default "64 256 1000")
#   AB_FLEET_SHARDS   shard counts        (default "1 4")
#   AB_FLEET_ARGS     extra bench args    (default "--quick --seed 1")
#
# SLO-sweep mode (emits BENCH_workload.json):
#   scripts/bench_ab.sh slo-sweep
#     Runs `bench_fleet_scenario` for both profiles (paper budget steps and
#     the diurnal rack) with the open-loop tenant epilogues, re-runs the
#     paper profile at a different worker count to PROVE the per-tenant
#     tables are deterministic, and writes the per-phase per-tenant SLO
#     rows (violation rate vs power budget) to AB_OUT
#     (default: BENCH_workload.json in the repo root).
#   AB_SLO_ARGS  extra bench args (default "--quick --seed 1")
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "fleet-sweep" ]; then
  DEVICES="${AB_FLEET_DEVICES:-64 256 1000}"
  SHARDS="${AB_FLEET_SHARDS:-1 4}"
  ARGS="${AB_FLEET_ARGS:---quick --seed 1}"
  OUT="${AB_OUT:-$REPO/BENCH_fleet.json}"
  echo "== building bench_fleet_scenario (working tree)"
  cmake -S "$REPO" -B "$REPO/build-ab" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$REPO/build-ab" --target bench_fleet_scenario -j "$(nproc)" >/dev/null
  BIN="$REPO/build-ab/bench/bench_fleet_scenario"
  ROWS=""
  for d in $DEVICES; do
    for k in $SHARDS; do
      echo "== devices=$d shards=$k"
      t0=$(date +%s%N)
      # shellcheck disable=SC2086
      "$BIN" --profile diurnal --devices "$d" --shards "$k" $ARGS >/dev/null
      t1=$(date +%s%N)
      ms=$(( (t1 - t0) / 1000000 ))
      echo "   ${ms} ms"
      ROWS="$ROWS{\"devices\": $d, \"shards\": $k, \"wall_ms\": $ms},"
    done
  done
  {
    echo "{"
    echo "  \"bench\": \"bench_fleet_scenario --profile diurnal $ARGS\","
    echo "  \"host_cpus\": $(nproc),"
    echo "  \"note\": \"single-core host: shard workers time-slice one CPU, so any speedup here is event-queue cache locality (K small per-shard queues instead of one giant interleaved one), not parallelism; a K-core host adds up to K-way on top\","
    echo "  \"sweep\": [${ROWS%,}]"
    echo "}"
  } > "$OUT"
  echo "wrote $OUT"
  exit 0
fi
if [ "${1:-}" = "slo-sweep" ]; then
  ARGS="${AB_SLO_ARGS:---quick --seed 1}"
  OUT="${AB_OUT:-$REPO/BENCH_workload.json}"
  WORK="$(mktemp -d /tmp/pas-slo.XXXXXX)"
  trap 'rm -rf "$WORK"' EXIT
  echo "== building bench_fleet_scenario (working tree)"
  cmake -S "$REPO" -B "$REPO/build-ab" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$REPO/build-ab" --target bench_fleet_scenario -j "$(nproc)" >/dev/null
  BIN="$REPO/build-ab/bench/bench_fleet_scenario"
  echo "== paper profile (3 devices, 1 shard)"
  # shellcheck disable=SC2086
  "$BIN" $ARGS --jobs 2 --csv-dir "$WORK/paper" >/dev/null
  echo "== paper profile again at --jobs 1 (determinism check)"
  # shellcheck disable=SC2086
  "$BIN" $ARGS --jobs 1 --csv-dir "$WORK/paper_j1" >/dev/null
  cmp "$WORK/paper/fleet_scenario_slo.csv" "$WORK/paper_j1/fleet_scenario_slo.csv"
  echo "   per-tenant table identical across worker counts"
  echo "== diurnal profile (12 devices, 3 shards)"
  # shellcheck disable=SC2086
  "$BIN" $ARGS --profile diurnal --devices 12 --shards 3 --jobs 2 \
      --csv-dir "$WORK/diurnal" >/dev/null
  python3 - "$WORK" "$OUT" "$ARGS" <<'PY'
import json, sys
work, out, args = sys.argv[1], sys.argv[2], sys.argv[3]

def rows(path):
    with open(path) as f:
        return [{"phase": r["phase"], "budget_w": float(r["budget W"]),
                 "tenant": r["tenant"], "ios": int(r["ios"]),
                 "mib_s": float(r["MiB/s"]), "slo_ios": int(r["slo ios"]),
                 "violations": int(r["violations"]),
                 "viol_rate": float(r["viol rate"]), "avg_ms": float(r["avg ms"])}
                for r in json.load(f)]

result = {
    "bench": f"bench_fleet_scenario {args}",
    "slo": "frontend tenant: 2 ms per-IO latency target on open-loop reads",
    "deterministic": "paper-profile table byte-identical at --jobs 1 and --jobs 2",
    "paper": rows(f"{work}/paper/fleet_scenario_slo.json"),
    "diurnal": rows(f"{work}/diurnal/fleet_scenario_slo_diurnal.json"),
}
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
PY
  exit 0
fi

echo "usage: scripts/bench_ab.sh fleet-sweep | slo-sweep" >&2
exit 2

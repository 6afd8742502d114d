#!/usr/bin/env bash
# smoke-analysis.sh — end-to-end decision-analysis round trip: build
# rldecide-serve and rldecide-analyze, start one daemon with tracing and
# trajectory recording on, run a steer-ppo study (real PPO training per
# trial), and check that
#
#   * all three GET /studies/{id}/analysis/{kind} endpoints serve a
#     report over HTTP,
#   * a second fetch serves the cached sidecar byte-identically,
#   * rldecide-analyze produces the same three reports offline from the
#     state directory's trace and trajectory journals,
#   * rldecide-analyze -url fetches through the daemon.
#
# Runs in CI (see .github/workflows/ci.yml) and locally:
#
#   ./scripts/smoke-analysis.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TOKEN=smoke
PORT="${SMOKE_ANALYSIS_PORT:-18100}"
DIR="$(mktemp -d)"
BIN="$DIR/bin"
mkdir -p "$BIN"

cleanup() {
  kill "${PIDS[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
PIDS=()
trap cleanup EXIT

go build -o "$BIN/rldecide-serve" ./cmd/rldecide-serve
go build -o "$BIN/rldecide-analyze" ./cmd/rldecide-analyze

"$BIN/rldecide-serve" -addr "127.0.0.1:$PORT" -dir "$DIR/state" \
  -workers 4 -token "$TOKEN" -trace -analysis &
PIDS+=($!)

base="http://127.0.0.1:$PORT"
for _ in $(seq 1 50); do
  curl -sf "$base/healthz" >/dev/null && break
  sleep 0.2
done
curl -sf "$base/healthz" >/dev/null || { echo "daemon never came up" >&2; exit 1; }

# A tiny steer-ppo study: enough PPO training to record real evaluation
# trajectories, small enough to finish in seconds.
spec='{
  "name": "analysis-smoke",
  "params": [
    {"name": "lr", "type": "floatrange", "lo": 0.001, "hi": 0.01, "log": true},
    {"name": "hidden", "type": "intset", "ints": [4, 8]},
    {"name": "steps", "type": "intset", "ints": [128]}
  ],
  "explorer": {"type": "random"},
  "metrics": [
    {"name": "return", "direction": "max"},
    {"name": "compute", "direction": "min"}
  ],
  "objective": "steer-ppo",
  "budget": 4,
  "parallelism": 2,
  "seed": 11
}'

id=$(curl -sf -X POST "$base/studies" \
  -H "Authorization: Bearer $TOKEN" -d "$spec" |
  sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[ -n "$id" ] || { echo "submit returned no study id" >&2; exit 1; }
echo "submitted $id"

for _ in $(seq 1 300); do
  status=$(curl -sf "$base/studies/$id" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' | head -1) || status=""
  [ "$status" = "done" ] && break
  [ "$status" = "failed" ] && { curl -s "$base/studies/$id" >&2; exit 1; }
  sleep 0.2
done
[ "$status" = "done" ] || { echo "study $id stuck in '$status'" >&2; exit 1; }

# The tracer drains the event bus asynchronously. Every span of the study
# is published before its study_done event, so once that reaches
# trace.jsonl the trace report has all it will ever have.
done_ev="\"kind\":\"study_done\",\"study\":\"$id\""
for _ in $(seq 1 50); do
  grep -qs "$done_ev" "$DIR/state/trace.jsonl" && break
  sleep 0.2
done
grep -qs "$done_ev" "$DIR/state/trace.jsonl" ||
  { echo "trace.jsonl never recorded study_done for $id" >&2; exit 1; }

# check_trace_report FILE: the trace report counts every trial of the
# 4-trial budget and decomposes their critical paths.
check_trace_report() {
  local flat
  flat=$(tr -d ' \n' <"$1")
  case "$flat" in
    *'"trials":{"count":4,'*) ;;
    *) echo "$1: trials.count is not 4: $flat" >&2; return 1 ;;
  esac
  case "$flat" in
    *'"critical_path":[{'*) ;;
    *) echo "$1: critical_path is empty: $flat" >&2; return 1 ;;
  esac
}

# All three reports over HTTP, each fetched twice: the second response
# must be the cached sidecar, byte-identical to the first.
for kind in traces attribution counterfactuals; do
  curl -sf "$base/studies/$id/analysis/$kind" >"$DIR/$kind.1.json" ||
    { echo "GET analysis/$kind failed" >&2; exit 1; }
  [ -f "$DIR/state/$id.analysis-$kind.json" ] ||
    { echo "no sidecar cache for $kind" >&2; exit 1; }
  curl -sf "$base/studies/$id/analysis/$kind" >"$DIR/$kind.2.json"
  cmp -s "$DIR/$kind.1.json" "$DIR/$kind.2.json" ||
    { echo "cached $kind report differs from fresh one" >&2; exit 1; }
done
check_trace_report "$DIR/traces.1.json"
grep -q '"ranking"' "$DIR/attribution.1.json" || { echo "attribution report has no ranking" >&2; exit 1; }
grep -q '"points"' "$DIR/counterfactuals.1.json" || { echo "counterfactual report has no points" >&2; exit 1; }
echo "all three analysis endpoints OK (cached + byte-stable)"

# Offline: the CLI must produce the same three reports straight from the
# state directory, no daemon involved.
"$BIN/rldecide-analyze" traces -trace "$DIR/state/trace.jsonl" -study "$id" >"$DIR/cli-traces.json"
check_trace_report "$DIR/cli-traces.json"
traj="$DIR/state/$id.trajectories.jsonl"
[ -s "$traj" ] || { echo "no trajectory journal at $traj" >&2; exit 1; }
"$BIN/rldecide-analyze" attribution -traj "$traj" >"$DIR/cli-attr.json"
grep -q '"ranking"' "$DIR/cli-attr.json" || { echo "offline attribution empty" >&2; exit 1; }
"$BIN/rldecide-analyze" counterfactuals -traj "$traj" >"$DIR/cli-cf.json"
grep -q '"points"' "$DIR/cli-cf.json" || { echo "offline counterfactuals empty" >&2; exit 1; }
echo "offline CLI OK"

# And through the daemon with -url.
"$BIN/rldecide-analyze" counterfactuals -url "$base" -study "$id" >"$DIR/url-cf.json"
grep -q '"points"' "$DIR/url-cf.json" || { echo "-url counterfactuals empty" >&2; exit 1; }
echo "analysis smoke OK"

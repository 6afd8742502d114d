#!/usr/bin/env bash
# smoke-workers.sh — end-to-end fleet round trip: build rldecide-serve and
# rldecide-worker, start a fleet-mode daemon plus two workers behind a
# bearer token, submit a tiny sphere study, wait for it to finish, and
# check that every journaled trial carries a remote worker attribution,
# a real wall-clock timing, and that both daemons expose their core
# metric series on GET /metrics.
#
# Runs in CI (see .github/workflows/ci.yml) and locally:
#
#   ./scripts/smoke-workers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TOKEN=smoke
PORT="${SMOKE_PORT:-18080}"
W1_PORT=$((PORT + 1))
W2_PORT=$((PORT + 2))
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
go build -o "$BIN/rldecide-worker" ./cmd/rldecide-worker

"$BIN/rldecide-serve" -addr "127.0.0.1:$PORT" -dir "$DIR/state" \
  -exec fleet -token "$TOKEN" &
PIDS+=($!)

for i in 1 2; do
  port=$((PORT + i))
  "$BIN/rldecide-worker" -serve "http://127.0.0.1:$PORT" \
    -addr "127.0.0.1:$port" -name "smoke-w$i" -slots 2 -token "$TOKEN" &
  PIDS+=($!)
done

base="http://127.0.0.1:$PORT"
for _ in $(seq 1 50); do
  curl -sf "$base/healthz" >/dev/null && break
  sleep 0.2
done
curl -sf "$base/healthz" >/dev/null || { echo "daemon never came up" >&2; exit 1; }

# Wait for both workers to register before submitting. The || n=0 keeps
# a zero-match grep (empty fleet, pipefail) from aborting the retry loop.
for _ in $(seq 1 50); do
  n=$(curl -sf "$base/workers" | grep -o '"name"' | wc -l) || n=0
  [ "$n" -ge 2 ] && break
  sleep 0.2
done
[ "$n" -ge 2 ] || { echo "workers never registered (got $n)" >&2; exit 1; }

spec='{
  "name": "smoke",
  "params": [
    {"name": "x", "type": "floatrange", "lo": -2, "hi": 2},
    {"name": "y", "type": "floatrange", "lo": -2, "hi": 2}
  ],
  "explorer": {"type": "random"},
  "metrics": [
    {"name": "f", "direction": "min"},
    {"name": "cost", "direction": "min"}
  ],
  "objective": "sphere",
  "budget": 8,
  "parallelism": 4,
  "seed": 7
}'

# The token is enforced: an anonymous submit must bounce.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/studies" -d "$spec")
[ "$code" = "401" ] || { echo "anonymous submit got $code, want 401" >&2; exit 1; }

id=$(curl -sf -X POST "$base/studies" \
  -H "Authorization: Bearer $TOKEN" -d "$spec" |
  sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[ -n "$id" ] || { echo "submit returned no study id" >&2; exit 1; }
echo "submitted $id"

for _ in $(seq 1 100); do
  status=$(curl -sf "$base/studies/$id" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' | head -1)
  [ "$status" = "done" ] && break
  [ "$status" = "failed" ] && { curl -s "$base/studies/$id" >&2; exit 1; }
  sleep 0.2
done
[ "$status" = "done" ] || { echo "study stuck in '$status'" >&2; exit 1; }

journal="$DIR/state/$id.trials.jsonl"
trials=$(wc -l <"$journal")
attributed=$(grep -c '"worker":"smoke-w' "$journal")
timed=$(grep -c '"wall_ms":' "$journal")
echo "journal: $trials trials, $attributed attributed to smoke workers, $timed timed"
[ "$trials" = "8" ] || { echo "expected 8 journaled trials" >&2; exit 1; }
[ "$attributed" = "8" ] || { cat "$journal" >&2; exit 1; }
[ "$timed" = "8" ] || { echo "trials missing wall_ms timing" >&2; cat "$journal" >&2; exit 1; }

# The daemon's exposition must carry the scheduler and journal series
# with the campaign's counts baked in.
metrics=$(curl -sf "$base/metrics")
for series in \
  'rldecide_studyd_studies_submitted_total 1' \
  'rldecide_studyd_trials_finished_total 8' \
  'rldecide_studyd_studies{status="done"} 1' \
  'rldecide_fleet_dispatches_total 8' \
  'rldecide_fleet_workers 2' \
  'rldecide_journal_appends_total 8' \
  'rldecide_studyd_trial_seconds_bucket'; do
  echo "$metrics" | grep -qF "$series" ||
    { echo "daemon /metrics missing: $series" >&2; echo "$metrics" >&2; exit 1; }
done

# Each worker exposes its trial counters and in-flight gauge.
for i in 1 2; do
  wm=$(curl -sf "http://127.0.0.1:$((PORT + i))/metrics")
  for series in \
    'rldecide_worker_trials_total' \
    "rldecide_worker_in_flight{worker=\"smoke-w$i\"} 0"; do
    echo "$wm" | grep -qF "$series" ||
      { echo "worker $i /metrics missing: $series" >&2; echo "$wm" >&2; exit 1; }
  done
done
echo "metrics scrapes OK"

# A worker keeps no spec bytes of its own: what its evaluator's prepared
# spec cache cannot answer it refuses, in the daemons' error envelope. A
# hash-only dispatch of a hash it holds nothing for is a 428; a spec sent
# under another spec's hash is a 400.
hash=$(printf '%s' '{"name":"never-submitted"}' | sha256sum | cut -d' ' -f1)
run() {
  curl -s -o "$DIR/run.json" -w '%{http_code}' -X POST "http://127.0.0.1:$W1_PORT/run" \
    -H "Authorization: Bearer $TOKEN" -d "$1"
}
for check in \
  "428 {\"study_id\":\"probe\",\"trial_id\":1,\"spec_hash\":\"$hash\",\"params\":{},\"seed\":1}" \
  "400 {\"study_id\":\"probe\",\"trial_id\":2,\"spec\":{\"name\":\"forged\"},\"spec_hash\":\"$hash\",\"params\":{},\"seed\":1}"; do
  want=${check%% *}
  code=$(run "${check#* }")
  { [ "$code" = "$want" ] && grep -q '"error"' "$DIR/run.json"; } ||
    { echo "worker /run: got $code $(cat "$DIR/run.json"), want $want with an error" >&2; exit 1; }
done
echo "worker refusals OK"

curl -sf "$base/studies/$id/front" | head -c 400; echo
echo "worker smoke OK"

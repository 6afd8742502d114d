#!/usr/bin/env bash
# smoke-shard.sh — end-to-end sharded control plane round trip: build
# rldecide-serve, rldecide-worker and rldecide-router, start two named
# serve daemons on one shared state directory plus two workers registered
# with both daemons, front the fleet with the router, and check that
#
#   * identical submissions spread across both shards (bounded-load
#     placement),
#   * per-study reads proxy through the router to the owning daemon,
#   * a done study's /front and /trials read the same bytes every time,
#   * the fleet-wide study list names every study once, sorted by ID,
#   * a study's /spans tree links the router's placement span, the owning
#     daemon's scheduling spans, and the worker-side execution spans
#     under one deterministic trace ID,
#   * the fleet-wide /metrics rollup carries daemon labels without
#     colliding series,
#   * killing one daemon re-homes its studies onto the survivor and the
#     router keeps serving and listing them.
#
# Runs in CI (see .github/workflows/ci.yml) and locally:
#
#   ./scripts/smoke-shard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TOKEN=smoke
RTOKEN=route-smoke
PORT="${SMOKE_SHARD_PORT:-18090}"
A_PORT=$((PORT + 1))
B_PORT=$((PORT + 2))
W1_PORT=$((PORT + 3))
W2_PORT=$((PORT + 4))
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
go build -o "$BIN/rldecide-router" ./cmd/rldecide-router

"$BIN/rldecide-serve" -addr "127.0.0.1:$A_PORT" -dir "$DIR/state" \
  -name alpha -exec fleet -token "$TOKEN" -trace &
PIDS+=($!)
"$BIN/rldecide-serve" -addr "127.0.0.1:$B_PORT" -dir "$DIR/state" \
  -name beta -exec fleet -token "$TOKEN" -trace &
BETA_PID=$!
PIDS+=($BETA_PID)

"$BIN/rldecide-router" -addr "127.0.0.1:$PORT" \
  -backends "alpha=http://127.0.0.1:$A_PORT,beta=http://127.0.0.1:$B_PORT" \
  -token "$TOKEN" -router-token "$RTOKEN" -reconcile 1s &
PIDS+=($!)

# One worker process per slot pair, registered with BOTH daemons.
for i in 1 2; do
  port=$((PORT + 2 + i))
  "$BIN/rldecide-worker" \
    -serve "http://127.0.0.1:$A_PORT,http://127.0.0.1:$B_PORT" \
    -addr "127.0.0.1:$port" -name "shard-w$i" -slots 2 -token "$TOKEN" &
  PIDS+=($!)
done

base="http://127.0.0.1:$PORT"
for _ in $(seq 1 50); do
  curl -sf "$base/healthz" >/dev/null && break
  sleep 0.2
done
curl -sf "$base/healthz" >/dev/null || { echo "router never came up" >&2; exit 1; }

# Both daemons must see both workers before we submit.
for p in "$A_PORT" "$B_PORT"; do
  for _ in $(seq 1 50); do
    n=$(curl -sf "http://127.0.0.1:$p/workers" | grep -o '"name"' | wc -l) || n=0
    [ "$n" -ge 2 ] && break
    sleep 0.2
  done
  [ "$n" -ge 2 ] || { echo "workers never registered with :$p (got $n)" >&2; exit 1; }
done

spec='{
  "name": "shard-smoke",
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

# The daemons' auth is enforced through the router: anonymous bounces.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/studies" -d "$spec")
[ "$code" = "401" ] || { echo "anonymous submit got $code, want 401" >&2; exit 1; }

# Three byte-identical submissions hash to one ring position; the
# bounded-load cap must still spread them across both shards.
ids=()
for _ in 1 2 3; do
  id=$(curl -sf -X POST "$base/studies" \
    -H "Authorization: Bearer $TOKEN" -d "$spec" |
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
  [ -n "$id" ] || { echo "submit returned no study id" >&2; exit 1; }
  ids+=("$id")
done
echo "placed: ${ids[*]}"
case " ${ids[*]} " in
  *" alpha-"*) ;;
  *) echo "no study placed on alpha: ${ids[*]}" >&2; exit 1 ;;
esac
case " ${ids[*]} " in
  *" beta-"*) ;;
  *) echo "no study placed on beta: ${ids[*]}" >&2; exit 1 ;;
esac

for id in "${ids[@]}"; do
  for _ in $(seq 1 100); do
    status=$(curl -sf "$base/studies/$id" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' | head -1) || status=""
    [ "$status" = "done" ] && break
    [ "$status" = "failed" ] && { curl -s "$base/studies/$id" >&2; exit 1; }
    sleep 0.2
  done
  [ "$status" = "done" ] || { echo "study $id stuck in '$status'" >&2; exit 1; }
  trials=$(wc -l <"$DIR/state/$id.trials.jsonl")
  [ "$trials" = "8" ] || { echo "$id journaled $trials trials, want 8" >&2; exit 1; }
done
echo "all studies done through the router"

# A done study's /front and /trials are rendered by its first read and
# then served as kept bytes: a second read through the router is
# byte-identical to the first, and so is the owner's own answer.
for id in "${ids[@]}"; do
  owner_port=$A_PORT
  case "$id" in beta-*) owner_port=$B_PORT ;; esac
  for ep in front trials; do
    curl -sf "$base/studies/$id/$ep" -o "$DIR/$ep.1"
    curl -sf "$base/studies/$id/$ep" -o "$DIR/$ep.2"
    curl -sf "http://127.0.0.1:$owner_port/studies/$id/$ep" -o "$DIR/$ep.owner"
    cmp "$DIR/$ep.1" "$DIR/$ep.2" && cmp "$DIR/$ep.1" "$DIR/$ep.owner" ||
      { echo "/$ep of done study $id differs between reads" >&2; exit 1; }
  done
done
echo "done-study bodies identical across reads"

# The fleet-wide list splices both daemons' GET /studies bodies: exactly
# the three studies, sorted by ID, each once.
list_ids() { curl -sf "$base/studies" | sed -n 's/^ *"id": *"\([^"]*\)".*/\1/p'; }
want_ids=$(printf '%s\n' "${ids[@]}" | LC_ALL=C sort)
got_ids=$(list_ids)
[ "$got_ids" = "$want_ids" ] ||
  { printf 'router lists\n%s\nwant\n%s\n' "$got_ids" "$want_ids" >&2; exit 1; }
echo "fleet-wide list OK"

# Fleet-wide causal tracing: the routed /spans tree must stitch the
# router's placement span, the daemon's scheduling spans, and the
# worker-side execution spans under a single trace ID.
tree=$(curl -sf "$base/studies/${ids[0]}/spans") ||
  { echo "router did not serve /spans for ${ids[0]}" >&2; exit 1; }
for name in place trial dispatch run objective journal; do
  echo "$tree" | grep -q "\"name\": *\"$name\"" ||
    { echo "span tree missing a '$name' span: $tree" >&2; exit 1; }
done
traces=$(echo "$tree" | grep -o '"trace": *"[0-9a-f]*"' | sort -u | wc -l)
[ "$traces" = "1" ] ||
  { echo "span tree carries $traces distinct trace IDs, want 1" >&2; exit 1; }
echo "$tree" | grep -q '"worker": *"shard-w' ||
  { echo "span tree lost worker attribution: $tree" >&2; exit 1; }
echo "span tree OK"

# Decision-analysis reads are per-study GETs, so the router must proxy
# them to the owning shard like any other study read. The owner's trace
# stream holds the study's spans once its study_done event has landed.
done_ev="\"kind\":\"study_done\",\"study\":\"${ids[0]}\""
for _ in $(seq 1 50); do
  grep -qs "$done_ev" "$DIR"/state/trace-*.jsonl && break
  sleep 0.2
done
report=$(curl -sf "$base/studies/${ids[0]}/analysis/traces") ||
  { echo "router did not proxy analysis/traces for ${ids[0]}" >&2; exit 1; }
flat=$(echo "$report" | tr -d ' \n')
case "$flat" in
  *'"trials":{"count":8,'*'"critical_path":[{'*) ;;
  *) echo "proxied trace report does not cover the 8 trials: $report" >&2; exit 1 ;;
esac
echo "analysis proxy OK"

# The rollup must label every shard's series and collide nothing.
metrics=$(curl -sf "$base/metrics")
for series in \
  'rldecide_router_backends{state="up"} 2' \
  'rldecide_studyd_studies{daemon="alpha"' \
  'rldecide_studyd_studies{daemon="beta"' \
  'rldecide_fleet_workers{daemon="alpha"} 2' \
  'rldecide_fleet_workers{daemon="beta"} 2' \
  'rldecide_router_placements{daemon='; do
  echo "$metrics" | grep -qF "$series" ||
    { echo "router /metrics missing: $series" >&2; echo "$metrics" >&2; exit 1; }
done
for family in 'rldecide_studyd_studies gauge' 'rldecide_fleet_dispatches_total counter'; do
  n=$(echo "$metrics" | grep -cF "# TYPE $family")
  [ "$n" = "1" ] || { echo "rollup repeats family '$family' $n times" >&2; exit 1; }
done
echo "metrics rollup OK"

# Failover: kill beta; the router's reconcile pass must re-home beta's
# studies onto alpha and keep serving them.
beta_id=""
for id in "${ids[@]}"; do
  case "$id" in beta-*) beta_id="$id" ;; esac
done
kill "$BETA_PID"
wait "$BETA_PID" 2>/dev/null || true
curl -sf -X POST "$base/rehome" -H "Authorization: Bearer $RTOKEN" >/dev/null

for _ in $(seq 1 50); do
  owner=$(curl -sf "$base/studies/$beta_id" |
    sed -n 's/.*"daemon": *"\([^"]*\)".*/\1/p' | head -1) || owner=""
  [ "$owner" = "alpha" ] && break
  sleep 0.2
done
[ "$owner" = "alpha" ] || { echo "study $beta_id not re-homed (owner '$owner')" >&2; exit 1; }
trials=$(curl -sf "$base/studies/$beta_id/trials" | grep -o '"id":' | wc -l)
[ "$trials" -ge 8 ] || { echo "re-homed study lost trials ($trials)" >&2; exit 1; }
echo "re-homed $beta_id onto alpha with $trials trials intact"

# The list still has the three studies, and lists the re-homed one as
# alpha's, one ownership generation on.
got_ids=$(list_ids)
[ "$got_ids" = "$want_ids" ] ||
  { printf 'after re-homing, router lists\n%s\nwant\n%s\n' "$got_ids" "$want_ids" >&2; exit 1; }
elem=$(curl -sf "$base/studies" |
  awk -v id="\"id\": \"$beta_id\"" 'index($0, id) { on = 1 } on { print } on && /^    }/ { exit }')
echo "$elem" | grep -q '"daemon": "alpha"' && echo "$elem" | grep -q '"generation": 2' ||
  { echo "list shows re-homed $beta_id as: $elem" >&2; exit 1; }
echo "fleet-wide list after re-homing OK"
echo "shard smoke OK"

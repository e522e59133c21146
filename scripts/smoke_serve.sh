#!/usr/bin/env bash
# End-to-end pacd smoke: build the daemon, start it on a local port,
# exercise the API (healthz, a tab1 experiment job, a repeated simulate
# that must hit the result store), check the /metrics deltas, and verify
# a clean SIGTERM drain (exit 0).
#
# Usage: scripts/smoke_serve.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${1:-${PACD_PORT:-18080}}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/pacd"
LOG="$(mktemp)"
PID=""

cleanup() {
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
  fi
  rm -f "$LOG" "$BIN"
}
trap cleanup EXIT

fail() {
  echo "smoke-serve: FAIL: $*" >&2
  echo "--- pacd log ---" >&2
  cat "$LOG" >&2
  exit 1
}

go build -o "$BIN" ./cmd/pacd

"$BIN" -addr "127.0.0.1:$PORT" -quick >"$LOG" 2>&1 &
PID=$!

# Wait for the daemon to come up.
up=""
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  kill -0 "$PID" 2>/dev/null || fail "pacd exited during startup"
  sleep 0.1
done
[ -n "$up" ] || fail "pacd did not answer /healthz"
curl -fsS "$BASE/healthz" | grep -q '"status": "ok"' || fail "unexpected /healthz body"
echo "smoke-serve: healthz ok"

# metric NAME -> current value of an unlabeled series (0 when absent).
metric() {
  curl -fsS "$BASE/metrics" | awk -v m="$1" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}

# Regenerate one paper artefact through the API.
tab1=$(curl -fsS -X POST "$BASE/v1/experiments/tab1/run?wait=60s")
echo "$tab1" | grep -q '"status": "done"' || fail "tab1 job did not finish: $tab1"
echo "$tab1" | grep -q '"artefact"' || fail "tab1 result missing artefact: $tab1"
echo "smoke-serve: tab1 experiment ok"

# A repeated identical simulate must be a store hit (the store is in
# memory: no -store): the store miss counter moves once, the hit counter
# moves on the repeat, and no second simulation starts.
body='{"benchmark": "GS", "mode": "pac"}'
misses0=$(metric pac_store_misses_total)
hits0=$(metric pac_store_hits_total)

first=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$BASE/v1/simulate?wait=60s")
echo "$first" | grep -q '"status": "done"' || fail "first simulate did not finish: $first"
echo "$first" | grep -q '"cached": false' || fail "first simulate claimed a cache hit: $first"
started1=$(metric pac_sims_started_total)
misses1=$(metric pac_store_misses_total)
[ "$misses1" = "$((misses0 + 1))" ] || fail "store misses $misses0 -> $misses1, want +1"

second=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$BASE/v1/simulate?wait=60s")
echo "$second" | grep -q '"status": "done"' || fail "second simulate did not finish: $second"
echo "$second" | grep -q '"cached": true' || fail "second simulate missed the store: $second"
started2=$(metric pac_sims_started_total)
hits1=$(metric pac_store_hits_total)
[ "$hits1" = "$((hits0 + 1))" ] || fail "store hits $hits0 -> $hits1, want +1"
[ "$started2" = "$started1" ] || fail "repeat simulate started a new simulation ($started1 -> $started2)"
echo "smoke-serve: store miss-then-hit ok"

# Graceful drain: SIGTERM must exit 0 after the queue unwinds.
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=""
[ "$status" = "0" ] || fail "pacd exited $status on SIGTERM"
grep -q "drained cleanly" "$LOG" || fail "missing clean-drain log line"
echo "smoke-serve: graceful drain ok"
echo "smoke-serve: PASS"

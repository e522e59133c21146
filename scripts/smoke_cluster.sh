#!/usr/bin/env bash
# End-to-end fleet smoke: build pacd and pacgw, start two quick backends
# and a gateway in front of them, then exercise the cluster contract —
# routing, store affinity on a repeated simulate, a fan-out
# sweep, a backend kill (ejection + survivor serving every key), and a
# clean SIGTERM drain of the gateway.
#
# Usage: scripts/smoke_cluster.sh [gateway-port [backend0-port backend1-port]]
set -euo pipefail

cd "$(dirname "$0")/.."

GW_PORT="${1:-${PACGW_PORT:-18090}}"
B0_PORT="${2:-18091}"
B1_PORT="${3:-18092}"
GW="http://127.0.0.1:$GW_PORT"
B0="http://127.0.0.1:$B0_PORT"
B1="http://127.0.0.1:$B1_PORT"

BINDIR="$(mktemp -d)"
GW_LOG="$(mktemp)"
B0_LOG="$(mktemp)"
B1_LOG="$(mktemp)"
GW_PID=""
B0_PID=""
B1_PID=""

cleanup() {
  for pid in "$GW_PID" "$B0_PID" "$B1_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$BINDIR" "$GW_LOG" "$B0_LOG" "$B1_LOG"
}
trap cleanup EXIT

fail() {
  echo "smoke-cluster: FAIL: $*" >&2
  echo "--- pacgw log ---" >&2
  cat "$GW_LOG" >&2
  echo "--- pacd b0 log ---" >&2
  cat "$B0_LOG" >&2
  echo "--- pacd b1 log ---" >&2
  cat "$B1_LOG" >&2
  exit 1
}

go build -o "$BINDIR/pacd" ./cmd/pacd
go build -o "$BINDIR/pacgw" ./cmd/pacgw

# Two quick backends; the gateway's -quick must mirror theirs so routing
# keys match the backends' store keys.
"$BINDIR/pacd" -addr "127.0.0.1:$B0_PORT" -quick -node b0 >"$B0_LOG" 2>&1 &
B0_PID=$!
"$BINDIR/pacd" -addr "127.0.0.1:$B1_PORT" -quick -node b1 >"$B1_LOG" 2>&1 &
B1_PID=$!

wait_up() { # wait_up URL PID NAME
  local up=""
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$2" 2>/dev/null || fail "$3 exited during startup"
    sleep 0.1
  done
  [ -n "$up" ] || fail "$3 did not answer /healthz"
}
wait_up "$B0" "$B0_PID" "pacd b0"
wait_up "$B1" "$B1_PID" "pacd b1"

"$BINDIR/pacgw" -addr "127.0.0.1:$GW_PORT" -backends "$B0,$B1" -quick \
  -health-interval 200ms -fail-after 2 -recover-after 2 >"$GW_LOG" 2>&1 &
GW_PID=$!
wait_up "$GW" "$GW_PID" "pacgw"
curl -fsS "$GW/healthz" | grep -q '"status": "ok"' || fail "gateway fleet not healthy"
curl -fsS "$GW/healthz" | grep -q '"backendsUp": 2' || fail "gateway does not see 2 backends"
echo "smoke-cluster: gateway + 2 backends up"

# metric NAME [LABELS] -> current value on the gateway (0 when absent).
gw_metric() {
  curl -fsS "$GW/metrics" | awk -v m="$1" '$1 ~ ("^" m) {sum += $2; found=1} END {print (found ? sum : 0)}'
}

# Routed simulate: the response must say which backend served it and
# carry the canonical routing key.
body='{"benchmark": "GS", "mode": "pac"}'
hdr1="$(mktemp)"
first=$(curl -fsS -D "$hdr1" -X POST -H 'Content-Type: application/json' -d "$body" "$GW/v1/simulate?wait=60s")
echo "$first" | grep -q '"status": "done"' || fail "first routed simulate did not finish: $first"
echo "$first" | grep -q '"cached": false' || fail "first routed simulate claimed a cache hit: $first"
backend1=$(awk 'tolower($1) == "x-pac-backend:" {print $2}' "$hdr1" | tr -d '\r')
[ -n "$backend1" ] || fail "missing X-Pac-Backend header"
grep -qi '^x-pac-key:' "$hdr1" || fail "missing X-Pac-Key header"
rm -f "$hdr1"
echo "smoke-cluster: routed simulate ok (served by $backend1)"

# Affinity: the identical repeat must land on the same backend and hit
# its result store; the gateway must have recorded zero affinity misses.
hdr2="$(mktemp)"
second=$(curl -fsS -D "$hdr2" -X POST -H 'Content-Type: application/json' -d "$body" "$GW/v1/simulate?wait=60s")
echo "$second" | grep -q '"cached": true' || fail "repeat simulate missed the backend's store: $second"
backend2=$(awk 'tolower($1) == "x-pac-backend:" {print $2}' "$hdr2" | tr -d '\r')
[ "$backend2" = "$backend1" ] || fail "affinity broken: first on $backend1, repeat on $backend2"
rm -f "$hdr2"
misses=$(gw_metric 'pac_gw_affinity_misses_total')
[ "$misses" = "0" ] || fail "healthy fleet recorded $misses affinity misses"
ratio=$(gw_metric 'pac_gw_affinity_hit_ratio')
[ "$ratio" = "1" ] || fail "affinity hit ratio $ratio, want 1"
echo "smoke-cluster: affinity repeat hit ok (ratio $ratio)"

# Fan-out sweep: a merged table over both modes, every cell attributed.
sweep=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"benchmarks": ["GS", "STREAM", "BFS", "FFT"], "modes": ["pac", "none"]}' "$GW/v1/sweep")
echo "$sweep" | grep -q '"table"' || fail "sweep missing table: $sweep"
echo "$sweep" | grep -q 'coalesceEff%' || fail "sweep table missing efficiency column: $sweep"
cells=$(echo "$sweep" | grep -o '"backend"' | wc -l)
[ "$cells" = "8" ] || fail "sweep returned $cells routed cells, want 8"
echo "smoke-cluster: fan-out sweep ok ($cells cells)"

# Node kill: SIGKILL one backend; the gateway must eject it and serve
# every key — including the dead node's — from the survivor.
kill -9 "$B0_PID"
wait "$B0_PID" 2>/dev/null || true
B0_PID=""
ejected=""
for _ in $(seq 1 100); do
  if [ "$(gw_metric 'pac_gw_ejections_total')" != "0" ]; then ejected=1; break; fi
  sleep 0.1
done
[ -n "$ejected" ] || fail "gateway never ejected the killed backend"
curl -fsS "$GW/healthz" | grep -q '"status": "degraded"' || fail "gateway healthz not degraded after kill"
for bench in GS STREAM BFS FFT; do
  hdr="$(mktemp)"
  resp=$(curl -fsS -D "$hdr" -X POST -H 'Content-Type: application/json' \
    -d "{\"benchmark\": \"$bench\"}" "$GW/v1/simulate?wait=60s")
  echo "$resp" | grep -q '"status": "done"' || fail "$bench after kill did not finish: $resp"
  served=$(awk 'tolower($1) == "x-pac-backend:" {print $2}' "$hdr" | tr -d '\r')
  [ "$served" = "$B1" ] || fail "$bench after kill served by '$served', want survivor $B1"
  rm -f "$hdr"
done
echo "smoke-cluster: backend kill ejection + survivor serving ok"

# Graceful drain: SIGTERM must exit 0 after in-flight work unwinds.
kill -TERM "$GW_PID"
status=0
wait "$GW_PID" || status=$?
GW_PID=""
[ "$status" = "0" ] || fail "pacgw exited $status on SIGTERM"
grep -q "drained cleanly" "$GW_LOG" || fail "missing clean-drain log line"
echo "smoke-cluster: graceful drain ok"
echo "smoke-cluster: PASS"

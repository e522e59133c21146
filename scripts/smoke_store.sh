#!/usr/bin/env bash
# End-to-end durable-store smoke (single node): simulate, restart pacd
# over the same store directory, and require the repeat request to be a
# disk hit with zero new simulation runs. Then simulate a new key, kill
# pacd with SIGKILL, and require the reboot to answer it from disk too:
# an entry is durable once its reply is sent, clean shutdown or not.
#
# Usage: scripts/smoke_store.sh [pacd-port]
set -euo pipefail

cd "$(dirname "$0")/.."

P0="${1:-${PACD_PORT:-18095}}"
D="http://127.0.0.1:$P0"

BINDIR="$(mktemp -d)"
STOREDIR="$(mktemp -d)"
LOGDIR="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$BINDIR" "$STOREDIR" "$LOGDIR"
}
trap cleanup EXIT

fail() {
  echo "smoke-store: FAIL: $*" >&2
  for log in "$LOGDIR"/*.log; do
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  exit 1
}

go build -o "$BINDIR/pacd" ./cmd/pacd

wait_up() { # wait_up URL PID NAME
  local up=""
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$2" 2>/dev/null || fail "$3 exited during startup"
    sleep 0.1
  done
  [ -n "$up" ] || fail "$3 did not answer /healthz"
}

metric() { # metric BASE_URL NAME -> summed value (0 when absent)
  curl -fsS "$1/metrics" | awk -v m="$2" '$1 ~ ("^" m "($|{)") {sum += $2; found=1} END {print (found ? sum : 0)}'
}

now_ms() { date +%s%3N; }

# simulate BASE_URL BODY HDR_FILE -> response body (synchronous)
simulate() {
  curl -fsS -D "$3" -X POST -H 'Content-Type: application/json' -d "$2" "$1/v1/simulate?wait=60s"
}

cache_header() { awk 'tolower($1) == "x-pac-cache:" {print $2}' "$1" | tr -d '\r'; }

body='{"benchmark": "GS", "mode": "pac"}'

"$BINDIR/pacd" -addr "127.0.0.1:$P0" -quick -store "$STOREDIR" \
  >"$LOGDIR/pacd1.log" 2>&1 &
D_PID=$!
PIDS+=("$D_PID")
wait_up "$D" "$D_PID" "pacd (boot 1)"

hdr="$(mktemp)"
t0=$(now_ms)
first=$(simulate "$D" "$body" "$hdr")
miss_ms=$(( $(now_ms) - t0 ))
echo "$first" | grep -q '"status": "done"' || fail "first simulate did not finish: $first"
key=$(echo "$first" | sed -nE 's/.*"configHash": *"([0-9a-f]+)".*/\1/p' | head -n 1)
[ -n "$key" ] || fail "first simulate reply carries no configHash: $first"
[ "$(cache_header "$hdr")" = "miss" ] || fail "first simulate cache source '$(cache_header "$hdr")', want miss"
rm -f "$hdr"
writes=$(metric "$D" pac_store_writes_total)
[ "$writes" != "0" ] || fail "completed result not written through to the store"
echo "smoke-store: fresh simulate + write-through ok (${miss_ms}ms)"

kill -TERM "$D_PID"
status=0; wait "$D_PID" || status=$?
[ "$status" = "0" ] || fail "pacd exited $status on SIGTERM"
grep -q "drained cleanly" "$LOGDIR/pacd1.log" || fail "boot-1 drain not clean"
[ -s "$STOREDIR/$key.res" ] || fail "no entry file $key.res after clean shutdown"
[ -z "$(find "$STOREDIR" -maxdepth 1 -name '.tmp-*' -print)" ] || fail "staged .tmp- files left after clean shutdown"

# Boot 2: an empty memo, so the repeat request must hit the DISK path.
"$BINDIR/pacd" -addr "127.0.0.1:$P0" -quick -store "$STOREDIR" \
  >"$LOGDIR/pacd2.log" 2>&1 &
D_PID=$!
PIDS+=("$D_PID")
wait_up "$D" "$D_PID" "pacd (boot 2)"

hdr="$(mktemp)"
t0=$(now_ms)
second=$(simulate "$D" "$body" "$hdr")
disk_ms=$(( $(now_ms) - t0 ))
echo "$second" | grep -q '"status": "done"' || fail "post-restart simulate did not finish: $second"
[ "$(cache_header "$hdr")" = "disk" ] || fail "post-restart cache source '$(cache_header "$hdr")', want disk"
rm -f "$hdr"
hits=$(metric "$D" pac_store_hits_total)
[ "$hits" != "0" ] || fail "pac_store_hits_total did not move on the disk hit"
sims=$(metric "$D" pac_sims_started_total)
[ "$sims" = "0" ] || fail "disk-hit boot ran $sims simulations, want 0"
echo "smoke-store: restart + disk hit ok (${disk_ms}ms, hits=$hits, sims=0)"

# A new key, then SIGKILL: no clean shutdown follows the write.
body2='{"benchmark": "STREAM", "mode": "pac"}'
hdr="$(mktemp)"
fresh=$(simulate "$D" "$body2" "$hdr")
echo "$fresh" | grep -q '"status": "done"' || fail "new-key simulate did not finish: $fresh"
[ "$(cache_header "$hdr")" = "miss" ] || fail "new-key cache source '$(cache_header "$hdr")', want miss"
rm -f "$hdr"
kill -9 "$D_PID"
wait "$D_PID" 2>/dev/null || true

# Boot 3: the entry written just before the kill answers from disk.
"$BINDIR/pacd" -addr "127.0.0.1:$P0" -quick -store "$STOREDIR" \
  >"$LOGDIR/pacd3.log" 2>&1 &
D_PID=$!
PIDS+=("$D_PID")
wait_up "$D" "$D_PID" "pacd (boot 3)"

hdr="$(mktemp)"
third=$(simulate "$D" "$body2" "$hdr")
echo "$third" | grep -q '"status": "done"' || fail "post-kill simulate did not finish: $third"
[ "$(cache_header "$hdr")" = "disk" ] || fail "post-kill cache source '$(cache_header "$hdr")', want disk"
rm -f "$hdr"
sims=$(metric "$D" pac_sims_started_total)
[ "$sims" = "0" ] || fail "post-kill boot ran $sims simulations, want 0"
echo "smoke-store: kill -9 + reboot + disk hit ok (sims=0)"

kill -TERM "$D_PID"
wait "$D_PID" || fail "pacd boot 3 did not drain cleanly"
echo "smoke-store: PASS"

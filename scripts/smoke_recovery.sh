#!/usr/bin/env bash
# End-to-end crash-recovery smoke. A WAL-backed pacd with checkpoints on
# is killed with SIGKILL mid-simulation; the restarted daemon must replay
# the journaled job, resume it from the last on-disk checkpoint instead
# of starting over, and finish with a result identical (modulo the
# SkippedCycles driver accounting) to an uninterrupted run of the same
# request on a clean daemon. On top of that: pacload -follow tails the
# recovered job's SSE stream to completion, and a journal with torn
# trailing garbage must boot cleanly (skipped + counted, never fatal).
#
# Usage: scripts/smoke_recovery.sh [victim-port [ref-port]]
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${1:-${PACD_PORT:-18105}}"
REF_PORT="${2:-18106}"
D="http://127.0.0.1:$PORT"
REF="http://127.0.0.1:$REF_PORT"

BINDIR="$(mktemp -d)"
DATADIR="$(mktemp -d)"
LOGDIR="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$BINDIR" "$DATADIR" "$LOGDIR"
}
trap cleanup EXIT

fail() {
  echo "smoke-recovery: FAIL: $*" >&2
  for log in "$LOGDIR"/*.log; do
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  exit 1
}

go build -o "$BINDIR/pacd" ./cmd/pacd
go build -o "$BINDIR/pacload" ./cmd/pacload

wait_ready() { # wait_ready URL PID NAME -- readiness, not just liveness
  local up=""
  for _ in $(seq 1 150); do
    if curl -fsS "$1/readyz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$2" 2>/dev/null || fail "$3 exited during startup"
    sleep 0.1
  done
  [ -n "$up" ] || fail "$3 did not answer /readyz"
}

metric() { # metric BASE_URL NAME -> summed value (0 when absent)
  curl -fsS "$1/metrics" | awk -v m="$2" '$1 ~ ("^" m "($|{)") {sum += $2; found=1} END {print (found ? sum : 0)}'
}

now_ms() { date +%s%3N; }

# Long enough to still be running when the kill lands (well over a
# second of simulation at quick scale, so the first checkpoint is durable
# long before the end), short enough to keep the smoke brisk. GS misses
# its caches often enough that the event kernel's L1 run-ahead cannot
# shortcut most of it.
body='{"benchmark": "GS", "mode": "pac", "accessesPerCore": 2000000}'
WAL="$DATADIR/jobs.wal"
CKPT="$DATADIR/ckpt"

# ---------------------------------------------------------------------
# Reference: the same request, uninterrupted, on a clean daemon.

"$BINDIR/pacd" -addr "127.0.0.1:$REF_PORT" -quick >"$LOGDIR/ref.log" 2>&1 &
REF_PID=$!
PIDS+=("$REF_PID")
wait_ready "$REF" "$REF_PID" "pacd (reference)"
t0=$(now_ms)
ref=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$REF/v1/simulate?wait=120s")
ref_ms=$(( $(now_ms) - t0 ))
echo "$ref" | jq -e '.status == "done"' >/dev/null || fail "reference run did not finish: $ref"
want=$(echo "$ref" | jq -S '.result.result | del(.SkippedCycles)')
full_cycles=$(echo "$ref" | jq '.result.result.Cycles')
kill -TERM "$REF_PID"
wait "$REF_PID" || fail "reference pacd did not drain cleanly"
echo "smoke-recovery: reference run ok (${ref_ms}ms, $full_cycles cycles)"

# ---------------------------------------------------------------------
# Victim: journal + checkpoints on, killed hard mid-job.

start_victim() { # start_victim LOG_SUFFIX
  "$BINDIR/pacd" -addr "127.0.0.1:$PORT" -quick -node w0 \
    -wal "$WAL" -checkpoint-dir "$CKPT" -checkpoint-interval 3000 \
    >"$LOGDIR/victim$1.log" 2>&1 &
  V_PID=$!
  PIDS+=("$V_PID")
  wait_ready "$D" "$V_PID" "pacd (victim$1)"
}
start_victim 1

job=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$D/v1/simulate")
id=$(echo "$job" | jq -r '.id')
[ -n "$id" ] && [ "$id" != "null" ] || fail "async simulate returned no job id: $job"

# Kill only after at least one checkpoint is durable — and while the job
# is still running, or there is nothing left to recover.
ckpts=0
for _ in $(seq 1 300); do
  ckpts=$(metric "$D" pac_checkpoint_writes_total)
  [ "$ckpts" != "0" ] && break
  sleep 0.05
done
[ "$ckpts" != "0" ] || fail "no checkpoint written while the job ran"
status=$(curl -fsS "$D/v1/jobs/$id" | jq -r '.status')
[ "$status" = "running" ] || fail "job is $status, not running, just before the kill; raise accessesPerCore"
kill -9 "$V_PID"
wait "$V_PID" 2>/dev/null || true
echo "smoke-recovery: SIGKILL after $ckpts checkpoint(s), job $id in flight"

# ---------------------------------------------------------------------
# Reboot: the journal replays the orphan, the checkpoint resumes it.

t0=$(now_ms)
start_victim 2
grep -q "recovered 1 unfinished jobs" "$LOGDIR/victim2.log" || fail "reboot did not recover the journaled job"

# Tail the recovered job's SSE stream to completion; -follow reconnects
# with Last-Event-ID, and its exit doubles as the job-done barrier.
"$BINDIR/pacload" -gateway "$D" -follow "$id" >"$LOGDIR/follow.log" 2>>"$LOGDIR/follow.log" \
  || fail "pacload -follow $id failed"
recovery_ms=$(( $(now_ms) - t0 ))
grep -q "resumed GS PAC from checkpoint" "$LOGDIR/follow.log" \
  || fail "followed stream carries no checkpoint-resume line"

final=$(curl -fsS "$D/v1/jobs/$id")
echo "$final" | jq -e '.status == "done"' >/dev/null || fail "recovered job not done: $final"
echo "$final" | jq -e '.recovered == true' >/dev/null || fail "recovered job not flagged recovered"
[ "$(metric "$D" pac_checkpoint_loads_total)" != "0" ] || fail "reboot never loaded a checkpoint"
ckpt_cycle=$(echo "$final" | jq -r '.progress[]? // empty' 2>/dev/null \
  | grep -o 'resumed GS PAC from checkpoint at cycle [0-9]*' | awk '{print $NF}' | head -1)
if [ -z "$ckpt_cycle" ]; then
  ckpt_cycle=$(grep -o 'resumed GS PAC from checkpoint at cycle [0-9]*' "$LOGDIR/follow.log" \
    | awk '{print $NF}' | head -1)
fi
[ -n "$ckpt_cycle" ] || fail "could not extract the resume cycle"

got=$(echo "$final" | jq -S '.result.result | del(.SkippedCycles)')
[ "$got" = "$want" ] || fail "recovered result differs from the uninterrupted run
--- got ---
$got
--- want ---
$want"
total_cycles=$(echo "$final" | jq '.result.result.Cycles')
resume_cycles=$(( total_cycles - ckpt_cycle ))
[ "$resume_cycles" -lt "$full_cycles" ] \
  || fail "resume simulated $resume_cycles cycles, not less than the full run's $full_cycles"
echo "smoke-recovery: resumed at cycle $ckpt_cycle of $total_cycles, identical result (${recovery_ms}ms)"

# ---------------------------------------------------------------------
# Torn-journal boot: trailing garbage after a crash is skipped and
# counted, never fatal.

kill -TERM "$V_PID"
wait "$V_PID" || fail "victim did not drain cleanly"
printf 'submit w0-j999999 simulate eyJ0b3JuIjp0cn' >> "$WAL" # torn mid-record
start_victim 3
[ "$(metric "$D" pac_wal_corrupt_records_total)" != "0" ] \
  || fail "torn trailing record not counted as corrupt"
curl -fsS "$D/healthz" >/dev/null || fail "daemon unhealthy after torn-journal boot"
kill -TERM "$V_PID"
wait "$V_PID" || fail "victim (torn boot) did not drain cleanly"
echo "smoke-recovery: torn-journal boot ok (skipped + counted)"

echo "smoke-recovery: PASS (full run $full_cycles cycles in ${ref_ms}ms;" \
  "checkpoint at cycle $ckpt_cycle, resumed $resume_cycles cycles in ${recovery_ms}ms)"

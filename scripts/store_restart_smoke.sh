#!/usr/bin/env bash
# store_restart_smoke.sh — end-to-end check of the disk store across a
# worker restart.
#
# Boots one warpedd worker with a content-addressed store directory, runs
# the smoke campaign, drains the worker with SIGTERM (which flushes every
# write-through persist), then starts a brand-new process on the same
# store directory and re-runs the identical campaign. The second run must
# be served from the store — >= 90% store hits, zero recomputations — and
# its merged report must be byte-identical to the first. A recorded trace
# makes the same round trip: pathfinder is recorded before the SIGTERM, and
# the restarted process must replay its ref — read back from disk — under a
# configuration the campaign never ran. This is the rolling-restart
# contract of DESIGN.md §16 on real processes, sockets and disks.
#
# Usage: scripts/store_restart_smoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${1:-18079}"
SPEC="examples/sweeps/smoke.json"
JOBS=8 # smoke.json: 2 benchmarks x 4 CompressLatency points
WORKDIR="$(mktemp -d)"
STOREDIR="$WORKDIR/store"
PID=""

cleanup() {
    if [ -n "$PID" ]; then
        kill "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== building warpedd and warpedctl"
go build -o "$WORKDIR/warpedd" ./cmd/warpedd
go build -o "$WORKDIR/warpedctl" ./cmd/warpedctl

start_worker() {
    "$WORKDIR/warpedd" -addr "127.0.0.1:$PORT" -scale small \
        -store-dir "$STOREDIR" \
        >>"$WORKDIR/worker.log" 2>&1 &
    PID=$!
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "worker on :$PORT never became healthy" >&2
    cat "$WORKDIR/worker.log" >&2
    return 1
}

# json_field NAME prints the first string value of NAME in the JSON on
# stdin (the server pretty-prints one field per line).
json_field() {
    sed -n "s/.*\"$1\": \"\([^\"]*\)\".*/\1/p" | head -n 1
}

# wait_job ID blocks on the job's event stream, which ends when it finishes.
wait_job() {
    curl -fsSN --max-time 120 "http://127.0.0.1:$PORT/v1/jobs/$1/events" >/dev/null
}

stop_worker() {
    # SIGTERM drains: in-flight jobs finish and pending store writes are
    # flushed before the process exits.
    kill -TERM "$PID"
    wait "$PID" 2>/dev/null || true
    PID=""
}

echo "== cold run: worker computes and persists the campaign"
start_worker
"$WORKDIR/warpedctl" sweep -workers "http://127.0.0.1:$PORT" \
    -spec "$SPEC" -o "$WORKDIR/cold.json" -quiet

echo "== recording pathfinder; its trace is written through to the store"
REC_ID="$(curl -fsS "http://127.0.0.1:$PORT/v1/jobs" \
    -d '{"benchmark":"pathfinder","mode":"record","config":{"NumSMs":2}}' | json_field id)"
wait_job "$REC_ID"
TRACE_REF="$(curl -fsS "http://127.0.0.1:$PORT/v1/jobs/$REC_ID" | json_field trace_ref)"
if [ -z "$TRACE_REF" ]; then
    echo "FAIL: record job $REC_ID finished without a trace_ref" >&2
    exit 1
fi

echo "== draining and restarting the worker on the same store dir"
stop_worker
start_worker

echo "== warm run: the same campaign against the fresh process"
"$WORKDIR/warpedctl" sweep -workers "http://127.0.0.1:$PORT" \
    -spec "$SPEC" -o "$WORKDIR/warm.json" -quiet

echo "== comparing reports"
if ! cmp "$WORKDIR/cold.json" "$WORKDIR/warm.json"; then
    echo "FAIL: warm report differs from cold report" >&2
    diff "$WORKDIR/cold.json" "$WORKDIR/warm.json" >&2 || true
    exit 1
fi

echo "== replaying $TRACE_REF from disk under a configuration nothing stored"
CODE="$(curl -sS -o "$WORKDIR/replay.json" -w '%{http_code}' "http://127.0.0.1:$PORT/v1/jobs" \
    -d "{\"mode\":\"replay\",\"trace_ref\":\"$TRACE_REF\",\"config\":{\"NumSMs\":2,\"CompressLatency\":3}}")"
if [ "$CODE" != 202 ]; then
    echo "FAIL: replay submission answered $CODE, want 202 (a fresh simulation, not a cached result)" >&2
    cat "$WORKDIR/replay.json" >&2
    exit 1
fi
REP_ID="$(json_field id <"$WORKDIR/replay.json")"
wait_job "$REP_ID"
STATE="$(curl -fsS "http://127.0.0.1:$PORT/v1/jobs/$REP_ID" | json_field state)"
if [ "$STATE" != done ]; then
    echo "FAIL: replay job $REP_ID ended in state '$STATE', want done" >&2
    exit 1
fi

echo "== checking store-hit fraction on the restarted worker"
METRICS="$(curl -fsS "http://127.0.0.1:$PORT/metrics")"
HITS="$(printf '%s\n' "$METRICS" | awk '$1 == "warpedd_store_hits_total" {print int($2)}')"
QUARANTINED="$(printf '%s\n' "$METRICS" | awk '$1 == "warpedd_store_quarantined_total" {print int($2)}')"
if [ -z "$HITS" ]; then
    echo "FAIL: warpedd_store_hits_total missing from /metrics" >&2
    exit 1
fi
if [ "$((HITS * 10))" -lt "$((JOBS * 9))" ]; then
    echo "FAIL: store hits $HITS/$JOBS below the 90% bar" >&2
    exit 1
fi
if [ "${QUARANTINED:-0}" -ne 0 ]; then
    echo "FAIL: restarted worker quarantined $QUARANTINED entries on a healthy store" >&2
    exit 1
fi

echo "PASS: restart served $HITS/$JOBS jobs from the store, reports byte-identical ($(wc -c <"$WORKDIR/warm.json") bytes), trace $TRACE_REF replayed from disk"

#!/usr/bin/env bash
# Cluster smoke: launch a fvevald coordinator (persistent data dir)
# plus two workers that register themselves with it, and drive
# distributed runs through fvevalctl four ways — static -workers
# fleet, dead-worker retry, loopback fleet, and the registered fleet
# via a server-side `submit -distributed` run — demanding
# byte-identical output against the single-process run each time.
# Then kill -9 the coordinator, restart it on the same data dir, and
# check the finished run is served byte-identical from the recovered
# journal while the workers re-register on their own and serve a
# fresh distributed submission. A traced
# distributed submission then exercises the observability path: the
# stitched span tree is fetched from /v1/runs/{id}/trace and
# jq-validated (single root, worker spans present), the Perfetto
# export is produced by fvevalctl trace, and the coordinator's -pprof
# heap endpoint is scraped. Finishes with a /metrics scrape (runtime
# gauges + queue-wait histogram included) and a graceful SIGINT drain.
#
# Run via `make cluster-smoke`; CI runs the same script.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT1=${CLUSTER_SMOKE_PORT1:-8191}
PORT2=${CLUSTER_SMOKE_PORT2:-8192}
CPORT=${CLUSTER_SMOKE_COORD_PORT:-8190}
DEAD_PORT=${CLUSTER_SMOKE_DEAD_PORT:-8199}
COORD_URL="http://127.0.0.1:$CPORT"

BIN=$(mktemp -d)
DATA="$BIN/data"
W1=""
W2=""
COORD=""
cleanup() {
  [ -n "$W1" ] && kill "$W1" 2>/dev/null || true
  [ -n "$W2" ] && kill "$W2" 2>/dev/null || true
  [ -n "$COORD" ] && kill "$COORD" 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

echo "cluster-smoke: building fveval, fvevald, fvevalctl"
go build -o "$BIN" ./cmd/fveval ./cmd/fvevald ./cmd/fvevalctl

"$BIN/fvevald" -addr "127.0.0.1:$CPORT" -data-dir "$DATA" -pprof >"$BIN/coord.log" 2>&1 &
COORD=$!
"$BIN/fvevald" -addr "127.0.0.1:$PORT1" -join "$COORD_URL" \
  -advertise "http://127.0.0.1:$PORT1" >"$BIN/w1.log" 2>&1 &
W1=$!
"$BIN/fvevald" -addr "127.0.0.1:$PORT2" -join "$COORD_URL" \
  -advertise "http://127.0.0.1:$PORT2" >"$BIN/w2.log" 2>&1 &
W2=$!

wait_ready() {
  local port=$1
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
      exec 3>&- 3<&-
      return 0
    fi
    sleep 0.1
  done
  echo "cluster-smoke: server on port $port never came up" >&2
  cat "$BIN"/*.log >&2
  exit 1
}
wait_ready "$CPORT"
wait_ready "$PORT1"
wait_ready "$PORT2"

# wait_fleet polls the coordinator's registry until both workers'
# self-registrations are live.
wait_fleet() {
  for _ in $(seq 1 100); do
    if [ "$("$BIN/fvevalctl" workers -to "$COORD_URL" 2>/dev/null | grep -c "127.0.0.1:$PORT1\|127.0.0.1:$PORT2")" = 2 ]; then
      return 0
    fi
    sleep 0.3
  done
  echo "cluster-smoke: workers never registered with the coordinator" >&2
  cat "$BIN"/*.log >&2
  exit 1
}
wait_fleet

echo "cluster-smoke: single-process reference run"
"$BIN/fveval" -table 1 2>/dev/null >"$BIN/single.out"

echo "cluster-smoke: 2 HTTP workers (static -workers fleet)"
"$BIN/fvevalctl" run -task table1 \
  -workers "http://127.0.0.1:$PORT1,http://127.0.0.1:$PORT2" \
  2>/dev/null >"$BIN/dist2.out"
diff "$BIN/single.out" "$BIN/dist2.out"

echo "cluster-smoke: 2 HTTP workers + 1 dead worker (failure + retry)"
"$BIN/fvevalctl" run -task table1 -shards 4 \
  -workers "http://127.0.0.1:$PORT1,http://127.0.0.1:$PORT2,http://127.0.0.1:$DEAD_PORT" \
  2>"$BIN/retry.err" >"$BIN/dist3.out"
diff "$BIN/single.out" "$BIN/dist3.out"
# the dead worker must have produced at least one retried attempt
grep -qE '\([1-9][0-9]* retried\)' "$BIN/retry.err"

echo "cluster-smoke: 4 loopback workers"
"$BIN/fvevalctl" run -task table1 -local 4 2>/dev/null >"$BIN/loop4.out"
diff "$BIN/single.out" "$BIN/loop4.out"

echo "cluster-smoke: server-side distributed run over the registered fleet"
"$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -follow \
  2>/dev/null >"$BIN/sdist.out"
diff "$BIN/single.out" "$BIN/sdist.out"

echo "cluster-smoke: AGR task family distributed across the fleet"
"$BIN/fveval" -task agr 2>/dev/null >"$BIN/agr-single.out"
"$BIN/fvevalctl" run -task agr \
  -workers "http://127.0.0.1:$PORT1,http://127.0.0.1:$PORT2" \
  2>/dev/null >"$BIN/agr-dist.out"
diff "$BIN/agr-single.out" "$BIN/agr-dist.out"

echo "cluster-smoke: persistent store survives kill -9"
RID=$("$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 2>/dev/null)
report_when_done() {
  local out=$1
  for _ in $(seq 1 100); do
    if "$BIN/fvevalctl" report -to "$COORD_URL" "$RID" 2>/dev/null >"$out"; then
      return 0
    fi
    sleep 0.3
  done
  echo "cluster-smoke: run $RID never produced a report" >&2
  cat "$BIN"/*.log >&2
  exit 1
}
report_when_done "$BIN/pre-crash.json"
kill -9 "$COORD"
wait "$COORD" 2>/dev/null || true
COORD=""
"$BIN/fvevald" -addr "127.0.0.1:$CPORT" -data-dir "$DATA" -pprof >"$BIN/coord2.log" 2>&1 &
COORD=$!
wait_ready "$CPORT"
report_when_done "$BIN/post-crash.json"
diff "$BIN/pre-crash.json" "$BIN/post-crash.json"

echo "cluster-smoke: workers re-register with the restarted coordinator"
wait_fleet
# -cache=false keeps the recovered result cache out of the way, so the
# run is dispatched to the re-registered fleet.
"$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -follow -cache=false \
  2>/dev/null >"$BIN/reg2.out"
diff "$BIN/single.out" "$BIN/reg2.out"

echo "cluster-smoke: traced distributed run (stitched spans + Perfetto export)"
"$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -follow \
  -trace "$BIN/trace.json" 2>/dev/null >"$BIN/traced.out"
diff "$BIN/single.out" "$BIN/traced.out"
# the Chrome export must be non-empty and contain the workers' spans
jq -e '.traceEvents | length > 0' "$BIN/trace.json" >/dev/null
jq -e '[.traceEvents[] | select(.name == "shard-run")] | length > 0' "$BIN/trace.json" >/dev/null
jq -e '[.traceEvents[] | select(.name == "job")] | length > 0' "$BIN/trace.json" >/dev/null
# the raw span dump from /v1/runs/{id}/trace must be one stitched tree:
# exactly one root, and every parent reference resolvable
TRID=$(jq -r '[.traceEvents[] | .args.run_id // empty][0]' "$BIN/trace.json")
[ -n "$TRID" ]
"$BIN/fvevalctl" trace -to "$COORD_URL" -raw "$TRID" >"$BIN/trace.ndjson"
jq -s -e '[.[] | select((.parent // 0) == 0)] | length == 1' "$BIN/trace.ndjson" >/dev/null
jq -s -e '([.[].id] | sort) as $ids | [.[] | select((.parent // 0) != 0) | .parent] | all(. as $p | $ids | bsearch($p) >= 0)' \
  "$BIN/trace.ndjson" >/dev/null

echo "cluster-smoke: pprof heap scrape (-pprof)"
curl -fsS "$COORD_URL/debug/pprof/heap?debug=1" >"$BIN/heap.out"
grep -q '^heap profile:' "$BIN/heap.out"

# A repeat submission against the restarted coordinator hits the
# result cache recovered from the journal, and still renders the same
# report (metrics below then see a non-zero submission count).
echo "cluster-smoke: recovered result cache serves a repeat submission"
"$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -follow \
  2>/dev/null >"$BIN/cached.out"
diff "$BIN/single.out" "$BIN/cached.out"

echo "cluster-smoke: /metrics scrape"
"$BIN/fvevalctl" metrics -to "$COORD_URL" >"$BIN/metrics.out"
grep -q '^fveval_runs_submitted_total [1-9]' "$BIN/metrics.out"
grep -q '^fveval_workers_live 2$' "$BIN/metrics.out"
grep -q '^fveval_queue_depth ' "$BIN/metrics.out"
grep -q '^fveval_run_wall_seconds_bucket' "$BIN/metrics.out"
grep -q '^fveval_solver_wall_seconds_bucket' "$BIN/metrics.out"
grep -q '^fveval_queue_wait_seconds_bucket' "$BIN/metrics.out"
grep -q '^fveval_go_goroutines ' "$BIN/metrics.out"
grep -q '^fveval_go_heap_bytes ' "$BIN/metrics.out"

echo "cluster-smoke: graceful shutdown (SIGINT drains, exit 0)"
kill -INT "$W1"
wait "$W1"
kill -INT "$W2"
wait "$W2"
W1=""
W2=""
kill -INT "$COORD"
wait "$COORD"
COORD=""
grep -q "drained" "$BIN/w1.log"
grep -q "drained" "$BIN/w2.log"
grep -q "drained" "$BIN/coord2.log"

echo "cluster-smoke: OK — static, registered, and loopback fleets byte-identical; dead-worker retry exercised; journal recovery byte-identical after kill -9; distributed trace stitched + exported; pprof and /metrics live"

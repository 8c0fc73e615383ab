#!/bin/sh
# End-to-end smoke test of the distributed campaign fabric and its
# fleet observability: build the worker, coordinator, and trace-merge
# binaries, boot a two-worker fleet with tracing and metrics on, run the
# same campaign locally and distributed — terminating one worker
# mid-run — and assert:
#   (a) the distributed outcome tallies are byte-identical to the local
#       run (stdout diff; the timeline and trace chatter go to stderr);
#   (b) the coordinator stole the dead worker's leases
#       (mbavf_fabric_leases_stolen > 0);
#   (c) the coordinator's /metrics carries mbavf_fleet_* series whose
#       unlabeled aggregate equals the sum of the worker-labeled samples,
#       and counts the shots the fleet delivered (mbavf_inject_shots >= 1:
#       the coordinator collects them through inject.Campaign.Run);
#   (d) the three per-process traces merge into one Chrome trace holding
#       the campaign span, worker lease spans, and the steal instant
#       across three distinct pids;
#   (e) the -fabric-timeline summary reports the steal.
# Artifacts (merged trace, timeline, captured metrics page) are copied
# into $ARTIFACTS_DIR when set. Used by `make fabric-smoke` and the CI
# fabric-smoke step.
set -eu

W1="127.0.0.1:18091"
W2="127.0.0.1:18092"
DEBUG="127.0.0.1:18093"
WORK="$(mktemp -d)"
SERVE="$WORK/mbavf-serve"
INJECT="$WORK/mbavf-inject"
TRACE="$WORK/mbavf-trace"
W1PID=""
W2PID=""
trap 'kill -9 "$W1PID" "$W2PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$SERVE" ./cmd/mbavf-serve
go build -o "$INJECT" ./cmd/mbavf-inject
go build -o "$TRACE" ./cmd/mbavf-trace

# Worker 1 is a deliberate straggler: every shot is throttled hard, so
# when we terminate it mid-run the coordinator is guaranteed to be
# holding unfinished leases on it — the exact state lease stealing
# exists for. It dies by SIGTERM (not SIGKILL): the drain cancels its
# lease contexts, so the steal still happens, and the drain path flushes
# its trace — the dying worker's lease spans must reach the merged
# fleet trace.
"$SERVE" -addr "$W1" -worker -fabric-shot-delay 500ms \
    -metrics -trace "$WORK/w1-trace.json" -drain-timeout 2s &
W1PID=$!
"$SERVE" -addr "$W2" -worker \
    -metrics -trace "$WORK/w2-trace.json" -drain-timeout 2s &
W2PID=$!

for addr in "$W1" "$W2"; do
    for i in $(seq 1 50); do
        if curl -sf "http://$addr/fabric/v1/health" >/dev/null 2>&1; then break; fi
        sleep 0.2
    done
    curl -sf "http://$addr/fabric/v1/health" >/dev/null || {
        echo "worker $addr never became healthy" >&2
        exit 1
    }
done

echo "--- local reference campaign"
"$INJECT" -workload vecadd -n 48 -seed 5 -workers 2 >"$WORK/local.txt"

echo "--- distributed campaign (worker 1 terminated mid-run)"
"$INJECT" -workload vecadd -n 48 -seed 5 \
    -fabric-workers "http://$W1,http://$W2" \
    -fabric-shard 4 -fabric-lease-ttl 1s \
    -trace "$WORK/coord-trace.json" -fabric-timeline \
    -debug-addr "$DEBUG" >"$WORK/dist.txt" 2>"$WORK/dist.err" &
IPID=$!

# Terminate the straggler once the coordinator has dispatched leases to
# both workers; its in-flight leases can then only finish by being
# stolen. While polling, keep the freshest /metrics page that carries
# fleet series — the coordinator's debug server dies with the process,
# so the fleet-aggregation assertion below runs against this capture.
KILLED=0
STOLEN=0
while kill -0 "$IPID" 2>/dev/null; do
    METRICS="$(curl -sf "http://$DEBUG/metrics" 2>/dev/null || true)"
    if printf '%s\n' "$METRICS" | grep -q '^mbavf_fleet_'; then
        printf '%s\n' "$METRICS" >"$WORK/coord-metrics.txt"
    fi
    if [ "$KILLED" = 0 ]; then
        DISPATCHED="$(printf '%s\n' "$METRICS" | awk '/^mbavf_fabric_leases_dispatched /{print $2}')"
        if [ -n "${DISPATCHED:-}" ] && [ "$DISPATCHED" -ge 2 ]; then
            kill "$W1PID"
            KILLED=1
            echo "    terminated worker 1 after $DISPATCHED dispatched leases"
        fi
    fi
    V="$(printf '%s\n' "$METRICS" | awk '/^mbavf_fabric_leases_stolen /{print $2}')"
    [ -n "${V:-}" ] && STOLEN="$V"
    sleep 0.1
done
wait "$IPID" || { echo "distributed campaign failed:" >&2; cat "$WORK/dist.err" >&2; exit 1; }

[ "$KILLED" = 1 ] || { echo "campaign finished before any lease was dispatched" >&2; exit 1; }

echo "--- distributed tallies match the local run"
if ! diff -u "$WORK/local.txt" "$WORK/dist.txt"; then
    echo "distributed campaign diverged from the local run" >&2
    exit 1
fi

echo "--- dead worker's leases were stolen (stolen=$STOLEN)"
[ "$STOLEN" -gt 0 ] || { echo "no leases were stolen after terminating worker 1" >&2; exit 1; }

echo "--- coordinator /metrics aggregates the fleet"
[ -s "$WORK/coord-metrics.txt" ] || {
    echo "no mbavf_fleet_* series ever appeared on the coordinator's /metrics" >&2
    exit 1
}
awk '
    /^mbavf_fleet_fabric_worker_leases_done /  { agg = $2; seen_agg = 1 }
    /^mbavf_fleet_fabric_worker_leases_done\{/ { sum += $2; labeled++ }
    END {
        if (!seen_agg)   { print "missing aggregate mbavf_fleet_fabric_worker_leases_done sample" > "/dev/stderr"; exit 1 }
        if (labeled < 1) { print "no worker-labeled mbavf_fleet_fabric_worker_leases_done samples" > "/dev/stderr"; exit 1 }
        if (agg + 0 != sum + 0) {
            printf "fleet aggregate %d != sum of %d worker samples %d\n", agg, labeled, sum > "/dev/stderr"
            exit 1
        }
        printf "    aggregate %d == sum over %d worker(s)\n", agg, labeled
    }
' "$WORK/coord-metrics.txt"

echo "--- coordinator /metrics counts the distributed shots"
SHOTS="$(awk '/^mbavf_inject_shots /{print $2}' "$WORK/coord-metrics.txt")"
[ -n "${SHOTS:-}" ] && [ "$SHOTS" -ge 1 ] || {
    echo "coordinator /metrics carries no mbavf_inject_shots count (got '${SHOTS:-}')" >&2
    exit 1
}
echo "    mbavf_inject_shots $SHOTS"

echo "--- drain worker 2 and merge the per-process traces"
kill "$W2PID"
wait "$W2PID" 2>/dev/null || true
wait "$W1PID" 2>/dev/null || true
for f in coord-trace.json w1-trace.json w2-trace.json; do
    [ -s "$WORK/$f" ] || { echo "missing trace file $f" >&2; exit 1; }
done
"$TRACE" merge -o "$WORK/fleet-trace.json" \
    "$WORK/coord-trace.json" "$WORK/w1-trace.json" "$WORK/w2-trace.json" \
    >"$WORK/merge.txt"
cat "$WORK/merge.txt"
PIDS="$(grep -c '^  pid ' "$WORK/merge.txt")"
[ "$PIDS" -eq 3 ] || { echo "merged trace has $PIDS pids, want 3" >&2; exit 1; }
grep -q '"campaign:vecadd"' "$WORK/fleet-trace.json" || {
    echo "merged trace is missing the coordinator campaign span" >&2; exit 1; }
grep -q '"lease ' "$WORK/fleet-trace.json" || {
    echo "merged trace is missing worker lease spans" >&2; exit 1; }
grep -q '"steal ' "$WORK/fleet-trace.json" || {
    echo "merged trace is missing the steal instant" >&2; exit 1; }

echo "--- timeline reports the steal"
grep -q 'fabric timeline' "$WORK/dist.err" || {
    echo "-fabric-timeline printed no timeline" >&2; exit 1; }
TSTOLEN="$(awk '/leases stolen/{print $NF; exit}' "$WORK/dist.err")"
[ -n "${TSTOLEN:-}" ] && [ "$TSTOLEN" -gt 0 ] || {
    echo "timeline reports no stolen leases (got '${TSTOLEN:-}')" >&2
    cat "$WORK/dist.err" >&2
    exit 1
}

if [ -n "${ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$ARTIFACTS_DIR"
    cp "$WORK/fleet-trace.json" "$ARTIFACTS_DIR/fleet-trace.json"
    cp "$WORK/dist.err" "$ARTIFACTS_DIR/fabric-timeline.txt"
    cp "$WORK/coord-metrics.txt" "$ARTIFACTS_DIR/coordinator-metrics.txt"
    echo "--- artifacts copied to $ARTIFACTS_DIR"
fi

echo "fabric-smoke: OK"

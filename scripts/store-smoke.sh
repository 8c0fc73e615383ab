#!/bin/sh
# End-to-end smoke test of the fleet-shared artifact store: one
# mbavf-serve process exposes its disk store over the HTTP artifact
# protocol (/store/v1), two worker processes point at it with
# -store-url, and the same query is sent to both. Exactly one worker
# may simulate; the other must answer from the shared store via ranged
# section fetches — transferring less than the whole artifact. Then
# mbavf-store lists the remote store, which must show the one recorded
# artifact undamaged. Used by `make store-smoke` and the CI store-smoke
# step.
set -eu

STORE_ADDR="127.0.0.1:18090"
W1_ADDR="127.0.0.1:18091"
W2_ADDR="127.0.0.1:18092"
WORK="$(mktemp -d)"
BIN="$WORK/mbavf-serve"
STORE_BIN="$WORK/mbavf-store"
STORE="$WORK/store"
trap 'kill "$STORE_PID" "$W1_PID" "$W2_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$BIN" ./cmd/mbavf-serve
go build -o "$STORE_BIN" ./cmd/mbavf-store

wait_up() { # addr pid name
    for i in $(seq 1 50); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
        if ! kill -0 "$2" 2>/dev/null; then echo "$3 died during boot" >&2; exit 1; fi
        sleep 0.2
    done
    echo "$3 never came up" >&2
    exit 1
}

echo "--- boot artifact server + two workers sharing its store"
"$BIN" -addr "$STORE_ADDR" -drain-timeout 30s -store "$STORE" &
STORE_PID=$!
"$BIN" -addr "$W1_ADDR" -drain-timeout 30s -store-url "http://$STORE_ADDR" &
W1_PID=$!
"$BIN" -addr "$W2_ADDR" -drain-timeout 30s -store-url "http://$STORE_ADDR" &
W2_PID=$!
wait_up "$STORE_ADDR" "$STORE_PID" "artifact server"
wait_up "$W1_ADDR" "$W1_PID" "worker 1"
wait_up "$W2_ADDR" "$W2_PID" "worker 2"

QUERY="/api/v1/avf?workload=vecadd&structure=l1&scheme=parity&style=logical&factor=2&mode=1"

echo "--- worker 1: cold query simulates and records through the wire"
AVF1="$(curl -sf "http://$W1_ADDR$QUERY")"
echo "$AVF1" | grep -q '"sb_avf"'
M1="$(curl -sf "http://$W1_ADDR/metrics")"
echo "$M1" | grep -q '^mbavf_serve_simulations 1$'
echo "$M1" | grep -q '^mbavf_store_misses 1$'
echo "$M1" | grep -q '^mbavf_store_puts 1$'
ls "$STORE"/*.mbavf >/dev/null

echo "--- worker 2: same query answers from the shared store, no simulation"
AVF2="$(curl -sf "http://$W2_ADDR$QUERY")"
echo "$AVF2" | grep -q '"sb_avf"'
M2="$(curl -sf "http://$W2_ADDR/metrics")"
echo "$M2" | grep -q '^mbavf_store_hits'
echo "$M2" | grep -q 'mbavf_store_hits{backend="http"}'
if echo "$M2" | grep -q '^mbavf_serve_simulations'; then
    echo "worker 2 simulated despite the shared store" >&2
    exit 1
fi
if echo "$M2" | grep -q '^mbavf_store_misses'; then
    echo "worker 2 missed the shared store" >&2
    exit 1
fi

echo "--- fleet-wide: exactly one simulation, exactly one store miss"
SIMS=$(( $(echo "$M1" | awk '/^mbavf_serve_simulations /{print $2}') + $(echo "$M2" | awk '/^mbavf_serve_simulations /{print $2; f=1} END{if(!f)print 0}' | tail -1) ))
MISSES=$(( $(echo "$M1" | awk '/^mbavf_store_misses /{print $2}') + $(echo "$M2" | awk '/^mbavf_store_misses /{print $2; f=1} END{if(!f)print 0}' | tail -1) ))
[ "$SIMS" = 1 ] || { echo "fleet simulated $SIMS times, want exactly 1" >&2; exit 1; }
[ "$MISSES" = 1 ] || { echo "fleet missed the store $MISSES times, want exactly 1" >&2; exit 1; }

echo "--- worker 2 fetched sections lazily via Range requests"
echo "$M2" | grep -q '^mbavf_store_http_range_reads'
ART_FILE=$(ls "$STORE"/*.mbavf | head -1)
ART_BYTES=$(wc -c < "$ART_FILE")
READ_BYTES=$(echo "$M2" | awk '/^mbavf_store_bytes_read /{print $2}')
[ -n "$READ_BYTES" ] || { echo "worker 2 reports no store bytes read" >&2; exit 1; }
if [ "$READ_BYTES" -ge "$ART_BYTES" ]; then
    echo "worker 2 transferred $READ_BYTES bytes of a $ART_BYTES-byte artifact; lazy section fetch is not working" >&2
    exit 1
fi
echo "lazy fetch: $READ_BYTES of $ART_BYTES artifact bytes transferred"

echo "--- mbavf-store lists the remote store: one vecadd artifact, none damaged"
LS="$("$STORE_BIN" -url "http://$STORE_ADDR" ls)"
echo "$LS"
if echo "$LS" | grep -q 'DAMAGED'; then
    echo "mbavf-store ls flagged a damaged artifact" >&2
    exit 1
fi
ROWS=$(echo "$LS" | awk '$2 == "vecadd"' | wc -l)
[ "$ROWS" = 1 ] || { echo "mbavf-store ls shows $ROWS vecadd rows, want 1" >&2; exit 1; }

echo "--- graceful drain of the whole fleet"
kill -TERM "$W1_PID" "$W2_PID"
wait "$W1_PID"
wait "$W2_PID"
kill -TERM "$STORE_PID"
wait "$STORE_PID"

echo "store-smoke: OK"

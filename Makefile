GO ?= go

.PHONY: all build vet test race race-solver race-inject ci bench bench-check fuzz-smoke serve-smoke fabric-smoke store-smoke clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The injection campaign runner and the analysis service
# (internal/serve: concurrent caches, singleflight, worker pools) are the
# most concurrency-heavy code here; race-check them (and everything else)
# the way CI does. -short skips the full experiment pipelines, which
# exceed the test timeout under the race detector's slowdown; `make test`
# still runs them race-free.
race:
	$(GO) test -race -short ./...

# Focused race pass over the ACE solver stack (the packed band sweep,
# timeline packing, row remap) and the recorders it reads (lifetime
# logs sealed for concurrent readers, the paged dataflow graph): these
# packages run full — not -short — so the concurrent solver-vs-oracle
# test and the concurrent tracker readers execute under the detector.
race-solver:
	$(GO) test -race -count=1 ./internal/core ./internal/lifetime ./internal/interleave ./internal/dataflow

# Focused race pass over fault injection and the simulator it drives:
# run full, not -short, so the shot-equivalence suite (shortcut path vs
# full simulation, concurrent workers sharing a campaign's register set)
# executes under the detector.
race-inject:
	$(GO) test -race -count=1 ./internal/inject ./internal/gpu ./internal/mem ./internal/sim

# End-to-end smoke of the analysis service: boot it, hit the health,
# query, and metrics endpoints, then drain it with SIGTERM. CI runs the
# same sequence inline.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end smoke of the distributed campaign fabric: boot a two-worker
# fleet, kill one worker mid-campaign, and assert the results match the
# local run bit-for-bit with leases stolen from the dead worker. CI runs
# the same sequence inline.
fabric-smoke:
	./scripts/fabric-smoke.sh

# End-to-end smoke of the fleet-shared artifact store: one mbavf-serve
# exposes its disk store over /store/v1, two workers point at it with
# -store-url, and the same query against both must simulate exactly
# once fleet-wide — the second worker answering via ranged section
# fetches that transfer less than the whole artifact. CI runs the same
# sequence inline.
store-smoke:
	./scripts/store-smoke.sh

ci: vet build race race-solver race-inject bench-check fabric-smoke store-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The repository benchmark's own checks (bench/: golden outputs, run
# order, statistics); the benchmark itself is `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) test ./...

# Short fuzzing passes over every fuzz target (one invocation per
# target: `go test -fuzz` accepts a single match per package).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzAssembleRoundTrip -fuzztime=10s ./internal/gpu
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointRoundTrip -fuzztime=10s ./internal/inject
	$(GO) test -run=^$$ -fuzz=FuzzHammingDecode -fuzztime=10s ./internal/ecc
	$(GO) test -run=^$$ -fuzz=FuzzStoreRoundTrip -fuzztime=10s ./internal/store
	$(GO) test -run=^$$ -fuzz=FuzzPackedTimeline -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzTrackerRecording -fuzztime=10s ./internal/lifetime

clean:
	$(GO) clean ./...

# Mirrors .github/workflows/ci.yml so local runs and CI stay identical.
GO ?= go

.PHONY: build test examples bench-module service-smoke cluster-smoke chaos-smoke bench lint ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# examples runs every program under examples/, the public facade's
# only non-test callers.
EXAMPLES = quickstart design2sva equivalence failure_modes nl2sva_machine

examples:
	for d in $(EXAMPLES); do $(GO) run ./examples/$$d > /dev/null || exit 1; done

# bench-module vets and tests the benchmark module (bench/ has its own
# go.mod, so ./... from the root does not reach it).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# service-smoke drives the fvevald service tier end to end under
# httptest: registry listing, submit/stream/poll/cancel, admission
# control, the persistent run store with restart recovery, the worker
# registry, and the /metrics exposition.
service-smoke:
	$(GO) test -race -v -count=1 ./internal/service/...

# cluster-smoke launches a real fvevald coordinator (persistent data
# dir) plus two self-registering workers on localhost, runs fvevalctl
# against them — static fleet, registered fleet, dead-worker retry,
# loopback fleet — diffs every distributed output against the
# single-process run, kill -9s the coordinator mid-flight and checks
# restart recovery serves finished runs byte-identical, and scrapes
# /metrics.
cluster-smoke:
	./scripts/cluster_smoke.sh

# chaos-smoke is the failure-semantics counterpart: everything built
# with -tags faultinject and driven by seeded fault plans. Injected
# dispatch/response losses, a stalled (then kill -9ed) worker, and a
# kill -9ed coordinator that must resume its in-flight distributed
# run from journaled shard checkpoints — every stage byte-diffed
# against the single-process reference.
chaos-smoke:
	./scripts/chaos_smoke.sh

# bench regenerates every table/figure once and refreshes the
# BENCH_tables.json perf-trajectory artifact (benchmark -> ns/op plus
# schema-v4 metrics such as the prefilter hit rate, with the prior run
# kept as baseline_ns_per_op for before/after diffs). The benchjson
# -gate-pct flag doubles as the regression guard: any tableN entry
# more than BENCH_GATE_PCT percent slower than the committed baseline
# fails the target (and the CI job) after writing the artifact.
BENCH_GATE_PCT ?= 20

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench.out || \
		{ cat bench.out; rm -f bench.out; exit 1; }
	cat bench.out
	@gate_rc=0; \
	$(GO) run ./cmd/benchjson -prev BENCH_tables.json -gate-pct $(BENCH_GATE_PCT) < bench.out > BENCH_tables.json.tmp || gate_rc=$$?; \
	mv BENCH_tables.json.tmp BENCH_tables.json; \
	rm -f bench.out; \
	exit $$gate_rc

lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

ci: build lint test examples bench-module service-smoke cluster-smoke chaos-smoke bench

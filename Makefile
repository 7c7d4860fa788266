# Mirrors .github/workflows/ci.yml so local runs and CI stay identical.
GO ?= go

.PHONY: build test fuzz examples regenerate bench-module service-smoke cluster-smoke chaos-smoke bench lint ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# fuzz explores past the seed corpora that go test runs: the SAT
# solver's incremental interface (gated clauses, retired activation
# literals, assumptions) checked by brute force, the equivalence checker
# against its one-shot oracle with every witness replayed, the SVA
# parser on arbitrary text, Design2SVA snippet parse and elaboration,
# and BLEU against the map-based scorer it replaced.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzIncremental -fuzztime=15s ./internal/sat
	$(GO) test -run='^$$' -fuzz=FuzzCheckDifferential -fuzztime=15s ./internal/equiv
	$(GO) test -run='^$$' -fuzz=FuzzParseAssertion -fuzztime=15s ./internal/sva
	$(GO) test -run='^$$' -fuzz=FuzzDesignSnippet -fuzztime=15s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBLEU -fuzztime=15s ./internal/metrics

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
# against them — `run` over a static fleet, with a dead worker (retry)
# and over a loopback fleet; `submit -distributed` over the registered
# fleet — diffs every distributed output against the single-process
# run, kill -9s the coordinator mid-flight and checks restart recovery
# serves finished runs byte-identical and the re-registered fleet
# serves a fresh distributed run, and scrapes /metrics.
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

# bench gates the working tree against the last commit on the
# repository's benchmark: five alternating pairs of bench/run.sh runs
# per workload, compared against BENCHMARK.json's bounds. It fails on a
# wrong report, a failed operation or a regressed metric, and takes
# about twenty minutes on 2 vCPUs. CI runs the same script against the
# PR's base, one job per workload.
bench:
	./scripts/bench_gate.sh

# regenerate renders every table and figure at full size through the
# task registry, the path fvevald serves, and diffs the output against
# the checked-in tables; a 3-sample Table 2 pins a run whose default
# cut-offs exceed its sample count. Table 1's and Table 3's stderr
# counters at one worker (equivalence-cache hits and misses,
# formal-backend and prefilter work) are deterministic, so that diff
# shows any change in memo traffic; Table 5's one-worker counters (formal-backend and
# prefilter work) and AGR's pin the model checker's solver work the
# same way, and refinement's pin the equivalence checker's (its
# witness traces reach model prompts). Only one worker is
# deterministic.
regenerate:
	$(GO) run ./cmd/fveval -all | diff -u cmd/fveval/testdata/all.txt -
	$(GO) run ./cmd/fveval -table 2 -samples 3 -limit 4 | diff -u cmd/fveval/testdata/table2_samples3.txt -
	$(GO) run ./cmd/fveval -table 1 -workers 1 2>&1 >/dev/null | grep -E '^(equiv cache|formal backend|sim prefilter):' | diff -u cmd/fveval/testdata/table1_counters.txt -
	$(GO) run ./cmd/fveval -table 3 -workers 1 2>&1 >/dev/null | grep -E '^(equiv cache|formal backend|sim prefilter):' | diff -u cmd/fveval/testdata/table3_counters.txt -
	$(GO) run ./cmd/fveval -table 5 -workers 1 2>&1 >/dev/null | grep -E '^(equiv cache|formal backend|sim prefilter):' | diff -u cmd/fveval/testdata/table5_counters.txt -
	$(GO) run ./cmd/fveval -task agr -workers 1 2>&1 >/dev/null | grep -E '^(equiv cache|formal backend|sim prefilter):' | diff -u cmd/fveval/testdata/agr_counters.txt -
	$(GO) run ./cmd/fveval -task refinement -workers 1 2>&1 >/dev/null | grep -E '^(equiv cache|formal backend|sim prefilter):' | diff -u cmd/fveval/testdata/refinement_counters.txt -

lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

ci: build lint test fuzz examples regenerate bench-module service-smoke cluster-smoke chaos-smoke bench

# Every check is defined here once: the jobs in .github/workflows/ci.yml
# run these targets, so local runs and CI stay identical.
GO ?= go

.PHONY: build test fuzz examples regenerate bench-module service-smoke cluster-smoke chaos-smoke bench lint ci

build:
	$(GO) build ./...

# test runs every package under the race detector. Its TestPinnedOutputs
# (cmd/fveval) is the one gate on regenerated outputs: it runs every
# table and figure at full size, a 3-sample Table 2 and the one-worker
# counter runs, and compares them byte for byte with cmd/fveval/testdata.
test:
	$(GO) test -race ./...

# fuzz explores past the seed corpora that go test runs: the SAT
# solver's incremental interface (gated clauses, retired activation
# literals, assumptions) checked by brute force, the equivalence checker
# against its one-shot oracle with every witness replayed, the SVA
# parser on arbitrary text, Design2SVA snippet parse and elaboration,
# AGR helper sets judged on a memo-warmed row against a fresh one, and
# BLEU against the map-based scorer it replaced.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzIncremental -fuzztime=15s ./internal/sat
	$(GO) test -run='^$$' -fuzz=FuzzCheckDifferential -fuzztime=15s ./internal/equiv
	$(GO) test -run='^$$' -fuzz=FuzzParseAssertion -fuzztime=15s ./internal/sva
	$(GO) test -run='^$$' -fuzz=FuzzDesignSnippet -fuzztime=15s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzHelperSet -fuzztime=15s ./internal/core
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

# regenerate rewrites every pinned output from the code, through the
# golden tests that compare it: cmd/fveval's tables, figures and
# counter files, internal/task's report goldens and internal/obs's
# Chrome trace fixture. It then shows which files moved, so after an
# intended output change it is the one refresh; on an unmodified tree
# it moves nothing.
regenerate:
	UPDATE_GOLDEN=1 $(GO) test -count=1 -run '^(TestPinnedOutputs|TestGolden.*|TestChromeTraceGolden)$$' ./cmd/fveval ./internal/task ./internal/obs
	git diff --stat -- cmd/fveval/testdata internal/task/testdata internal/obs/testdata

lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

ci: build lint test fuzz examples bench-module service-smoke cluster-smoke chaos-smoke bench

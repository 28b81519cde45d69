GO      ?= go
PKGS    ?= ./...
# Concurrency-critical packages: the fast race gate stays under ~1 minute
# so it can run on every local iteration.
RACE_FAST_PKGS = ./internal/engine ./internal/biclique ./internal/transport

# Chaos sweep size: seeds per profile in `make chaos`. 50 seeds across the
# four fault profiles plus the differential matrix gives 200+ seeded runs.
CHAOS_RUNS ?= 50
FUZZTIME   ?= 20s

.PHONY: build test lint vet race race-fast bench bench-smoke obs-smoke chaos chaos-split fuzz-short cover escape-gate perfbench-test ci

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

vet:
	$(GO) vet $(PKGS)

## lint: fastjoin-lint (unboundedchan, lockguard, goroutinestop, panicpath,
## spanstate, chaosclass, atomicfield) plus the stock go vet passes, with
## per-analyzer finding counts and wall time. See LINTING.md.
lint:
	$(GO) run ./cmd/fastjoin-lint -stats $(PKGS)

## race: the full race-enabled test run the CI gate enforces.
race:
	$(GO) test -race -count=1 $(PKGS)

## race-fast: race smoke test scoped to the engine/biclique/transport
## concurrency core, for local iteration.
race-fast:
	$(GO) test -race -count=1 $(RACE_FAST_PKGS)

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(PKGS)

## bench-smoke: short fixed-seed batching A/B (the BENCH_3 experiment at
## -quick scale), the data-plane allocation benchmarks, and the
## allocation ceiling gate (scripts/alloc_gate.sh, ceiling in
## ci/alloc_ceiling.txt). Writes bench-smoke.json, which CI archives as
## an artifact; a regression in the batched path shows up as the speedup
## column sliding toward 1.0.
bench-smoke:
	$(GO) run ./cmd/fastjoin-bench -figure batch -quick -json bench-smoke.json
	$(GO) test -run='^$$' -bench 'BenchmarkDataPlane' -benchtime=3x ./internal/biclique
	./scripts/alloc_gate.sh

## obs-smoke: boot a real join server with the observability endpoint,
## stream a workload at it, and scrape /metrics and /stats.json mid-run,
## asserting the per-instance load gauges, engine queue gauges, and
## migration counters are all exposed (scripts/obs_smoke.sh).
obs-smoke:
	./scripts/obs_smoke.sh

## chaos: the seeded fault-injection sweep under the race detector. Every
## run must produce the exact brute-force join result or a cleanly
## reported abort; replay a failure with
##   go test -race ./internal/biclique -run TestChaosReplay \
##     -args -chaos.profile=<p> -chaos.seed=<n>
chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -timeout=30m ./internal/biclique \
		-run 'Chaos' -args -chaos.runs=$(CHAOS_RUNS)

## chaos-split: the hot-key-splitting slice of the chaos matrix under the
## race detector — every fault profile with splitting enabled (the
## differential and store matrices' split=on rows), the
## split→migrate→unsplit interleaving lifecycle, and the churn/retire
## scenario (splits must cool, drain, and retire under every profile,
## with the split table returning to empty — the bounded-memory check).
chaos-split:
	$(GO) test -race -count=1 -timeout=15m ./internal/biclique \
		-run 'TestChaosDifferential/[a-z]+/split=on|TestChaosStoreDifferential/[a-z]+/[a-z]+/split=on|TestSplitMigrateUnsplitInterleaving|TestSplit|TestChaosChurnRetire|TestChurnRetireTraceSpans'

## fuzz-short: bounded fuzzing of the gob parser network ingestion runs
## (tcpConn.Recv) and the routing update path (corpora are checked in
## under testdata/fuzz).
fuzz-short:
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzTCPRecv -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/routing -run='^$$' -fuzz=FuzzRoutingUpdate -fuzztime=$(FUZZTIME)

## cover: per-package coverage plus the biclique+core+chaos floor gate
## (scripts/coverage_gate.sh, baseline in ci/coverage_baseline.txt).
cover:
	./scripts/coverage_gate.sh

## escape-gate: diff heap escapes in //lint:hotpath functions against
## ci/escape_baseline.txt (scripts/escape_gate.sh). A new escape on a hot
## path fails; admit intentional ones with
##   go run ./cmd/fastjoin-escape -update
escape-gate:
	./scripts/escape_gate.sh

## perfbench-test: vet and test the benchmark module (perfbench/, its own
## go.mod), so a root API change that breaks the benchmark fails here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## ci: everything the CI workflow gates on. `lint` includes go vet.
ci: build lint escape-gate test perfbench-test race obs-smoke

# Local dev and CI invoke the same targets (.github/workflows/ci.yml fans
# the `ci` target's steps out across parallel lint / build-test / bench /
# smoke jobs), so a green `make ci` locally means a green pipeline.

GO ?= go

# Perf-regression gate knobs (see scripts/benchsummary): relative ns/op
# regression that fails bench-check, and a baseline floor below which
# benchmarks are informational only — sub-microsecond timings (currently
# just GateApplicationWarm at ~90ns) swing well past the threshold run to
# run on shared runners even at -benchtime 100ms with min-of-5 selection.
BENCH_CHECK_THRESHOLD ?= 0.25
BENCH_CHECK_MIN_NS ?= 1000
# Parallel-scaling gate: required workers1/workers4 speedup (self-skips on
# runners with fewer than 4 CPUs). 0 disables it.
BENCH_CHECK_MIN_SCALING ?= 2.5
# Cluster routing gate: relative calibration-adjusted p99 regression of the
# hash-routed sweep that fails bench-check (the hit-rate gate — hash must
# beat round-robin — has no knob; it is the point of the router).
BENCH_CLUSTER_THRESHOLD ?= 0.25

# Coverage gate: the combined internal/core + internal/dd statement coverage
# measured when the gate landed (PR 8); cover-check fails below this floor.
COVER_FLOOR ?= 85.0

.PHONY: all build test race bench bench-smoke bench-check bench-baseline bench-cluster bench-cluster-baseline examples fmt fmt-check vet doc-lint perfbench-check atlas atlas-check simd-smoke cluster-smoke fuzz-smoke cover-check ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the full test suite under the race detector (the CI gate)
race:
	$(GO) test -race ./...

## bench: one-iteration benchmark smoke pass (checks the harness, not perf)
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-smoke: one-iteration dd + batch + session benchmarks, captured as
## the raw go-test JSON stream (BENCH_dd.json) and parsed by
## scripts/benchsummary into the stable-schema BENCH_summary.json
## (benchmark -> ns/op, allocs/op, custom metrics) that bench-check gates on
bench-smoke:
	$(GO) test -run '^$$' -bench 'Gate|Session|Channel' -benchtime 100ms -count 5 -benchmem -json \
		./internal/dd ./internal/sim ./internal/density > BENCH_dd.json
	$(GO) test -run '^$$' -bench 'Batch' -benchtime 1x -count 3 -benchmem -json \
		./internal/batch >> BENCH_dd.json
	$(GO) test -run '^$$' -bench 'Frontier' -benchtime 1x -count 3 -benchmem -json \
		./internal/benchtab >> BENCH_dd.json
	$(GO) run ./scripts/benchsummary -in BENCH_dd.json -out BENCH_summary.json

## bench-cluster: run the cluster latency harness (cmd/loadgen boots a local
## router + 2 backends and sweeps offered load under hash and round-robin
## routing), producing BENCH_cluster.json for the bench-check cluster gate
bench-cluster:
	$(GO) run ./cmd/loadgen -out BENCH_cluster.json

## bench-check: the perf-regression gate — fail when a Gate/Batch/Session
## benchmark's ns/op, allocs/op, or B/op regressed more than
## BENCH_CHECK_THRESHOLD against the committed bench_baseline.json, when
## BatchRun stops scaling (workers4 vs workers1, 4+ CPU runners only), when
## the ordering benchmark stops showing scored < identity peak nodes, when
## the replace pass stops dominating delete on the pairs frontier, when
## hash-affinity routing stops beating round-robin on cluster cache hit
## rate, or when the hash-routed p99 regresses more than
## BENCH_CLUSTER_THRESHOLD against bench_cluster_baseline.json
## (calibration-adjusted). Runs bench-smoke and bench-cluster first so both
## artifacts are fresh.
bench-check: bench-smoke bench-cluster
	$(GO) run ./scripts/benchsummary -check \
		-baseline bench_baseline.json -summary BENCH_summary.json \
		-threshold $(BENCH_CHECK_THRESHOLD) -min-ns $(BENCH_CHECK_MIN_NS) \
		-min-scaling $(BENCH_CHECK_MIN_SCALING) \
		-cluster BENCH_cluster.json -cluster-baseline bench_cluster_baseline.json \
		-cluster-threshold $(BENCH_CLUSTER_THRESHOLD)

## bench-baseline: refresh the committed perf baseline from a fresh
## bench-smoke run (commit the resulting bench_baseline.json)
bench-baseline: bench-smoke
	cp BENCH_summary.json bench_baseline.json
	@echo "bench-baseline: baseline refreshed; commit bench_baseline.json"

## bench-cluster-baseline: refresh the committed cluster latency baseline
## from a fresh bench-cluster run (commit bench_cluster_baseline.json)
bench-cluster-baseline: bench-cluster
	cp BENCH_cluster.json bench_cluster_baseline.json
	@echo "bench-cluster-baseline: baseline refreshed; commit bench_cluster_baseline.json"

## examples: compile every example program (the CI gate keeping docs honest)
examples:
	$(GO) build ./examples/...

## fmt: rewrite all Go sources with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file needs gofmt (the CI gate)
fmt-check:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

## vet: static analysis
vet:
	$(GO) vet ./...

## perfbench-check: vet and test the end-to-end benchmark module
## (perfbench/, its own go.mod replacing repro with this tree). The root
## `go test ./...` never compiles it, so an API change that breaks the
## benchmark would otherwise go unseen (the CI gate)
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## doc-lint: fail when any package lacks a doc.go package comment, so
## `go doc` stays useful everywhere (the CI gate)
doc-lint:
	@fail=0; \
	for d in . $$(find internal -mindepth 1 -maxdepth 1 -type d | sort); do \
		if ! grep -qs '^// Package ' "$$d/doc.go"; then \
			echo "doc-lint: $$d/doc.go missing or lacks a '// Package ...' comment"; \
			fail=1; \
		fi; \
	done; \
	for f in cmd/*/main.go; do \
		if ! head -1 "$$f" | grep -q '^// Command '; then \
			echo "doc-lint: $$f lacks a '// Command ...' comment"; \
			fail=1; \
		fi; \
	done; \
	if [ "$$fail" -ne 0 ]; then exit 1; fi; \
	echo "doc-lint: all packages and commands documented"

## fuzz-smoke: run every native fuzz target concurrently under one shared
## wall-clock budget (FUZZ_SMOKE_BUDGET, default 10s) so CI keeps exercising
## the mutation engines without paying 10s per target serially
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

## cover-check: measure combined internal/core + internal/dd +
## internal/dense + internal/density statement coverage into coverage.out
## and fail below the committed COVER_FLOOR
cover-check:
	$(GO) test -coverprofile=coverage.out ./internal/core ./internal/dd ./internal/dense ./internal/density
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "cover-check: core+dd+dense+density coverage %.1f%% below floor %.1f%%\n", t, floor; exit 1 } \
		printf "cover-check: core+dd+dense+density coverage %.1f%% (floor %.1f%%)\n", t, floor }'

## atlas: regenerate the approximability atlas — docs/ATLAS.md (committed),
## internal/atlas/winners_gen.go (committed, drives strategy=auto), and
## BENCH_atlas.json (gitignored runtime artifact)
atlas:
	$(GO) run ./cmd/atlas

## atlas-check: regenerate the atlas from the seeded sweeps and fail if the
## committed docs/ATLAS.md or winners table drifted (the CI gate keeping
## strategy=auto honest against the measured grid)
atlas-check:
	$(GO) run ./cmd/atlas -check

## simd-smoke: build the simulation service, boot it, and run a QASM job
## end-to-end including a cache-hit resubmission (the CI gate)
simd-smoke:
	sh scripts/simd_smoke.sh

## cluster-smoke: boot a router + 2 backends, run a QASM job through the
## router, verify hash-affinity cache hits and aggregated cluster stats, and
## drain gracefully on SIGTERM (the CI gate)
cluster-smoke:
	sh scripts/cluster_smoke.sh

## ci: everything the pipeline runs, in order
ci: fmt-check vet doc-lint perfbench-check build examples race fuzz-smoke cover-check atlas-check simd-smoke cluster-smoke

GO ?= go

.PHONY: all vet build test race race-full fmt-check staticcheck vuln smoke smoke-cluster check bench bench-smoke planner-smoke fuzz-smoke

all: check

# benchmark/ is a separate module compiled against the internal packages
# and the facade; vetting it here catches API breaks before bench-smoke.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive tests (shared caches, concurrent queries, the
# corpus shard pool and its bound pushes, the cluster gatherer, the query
# server) under the race detector — the fast subset for local iteration; CI
# runs race-full.
race:
	$(GO) test -race ./... -run 'Concurrent|Parallel|Corpus|Cluster|Serve|Server|Saturation|Drain'

# The full test suite under the race detector.
race-full:
	$(GO) test -race ./...

# Fail when any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Requires staticcheck on PATH (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	staticcheck ./...

# Requires govulncheck on PATH (CI installs it; locally:
# go install golang.org/x/vuln/cmd/govulncheck@latest).
vuln:
	govulncheck ./...

# End-to-end smoke test: generate, index, serve, query over HTTP.
smoke:
	./scripts/smoke.sh

# Cluster smoke test (docs/CLUSTER.md): three shard nodes behind a
# gatherer, ranking parity with single-process serving, and partial
# degradation when a node is killed.
smoke-cluster:
	./scripts/smoke_cluster.sh

check: vet build test race

bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz passes over the bundle manifest reader, the B+tree builder
# (fuzzer-chosen key sets and value sizes, read back through every lookup,
# count and rank operation), the collection-file reader, the packed
# dictionary reader, and direct evaluation against the reference evaluator
# (fuzzer-chosen models, trees and queries); longer local runs: go test
# -fuzz <target> in the respective package.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzManifest -fuzztime 30s ./internal/backend/
	$(GO) test -run xxx -fuzz FuzzBuild -fuzztime 30s ./internal/storage/
	$(GO) test -run xxx -fuzz FuzzReadTree -fuzztime 30s ./internal/xmltree/
	$(GO) test -run xxx -fuzz FuzzOpenPacked -fuzztime 30s ./internal/dict/
	$(GO) test -run xxx -fuzz FuzzPrimaryMatchesReference -fuzztime 30s ./internal/eval/

# CI gate for the query planner (docs/PLANNER.md): on every paper-pattern
# point the Auto pick must stay under twice the best forced strategy.
planner-smoke:
	$(GO) run ./cmd/axqlbench -scale 0.01 -plannercheck

# Fast benchmark pass for CI: a fixed small iteration count proves the Go
# benchmarks still compile and run; the repository benchmark's own tests
# pass; and short runs of two benchmark workloads, one per strategy, answer
# every query with the committed ranking (each summary line must report
# "failed":0). The direct leg runs 4 s so that a slow runner still collects
# the 1 000 samples its p99 needs.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./internal/eval/ ./internal/index/
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
	@out=$$(bash benchmark/run.sh --workload topn-schema --seed 1 --seconds 2 --trace 0) && \
		echo "$$out" && echo "$$out" | tail -n 1 | grep -q '"failed":0'
	@out=$$(bash benchmark/run.sh --workload alln-direct --seed 1 --seconds 4 --trace 0) && \
		echo "$$out" && echo "$$out" | tail -n 1 | grep -q '"failed":0'

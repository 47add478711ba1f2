GO ?= go

.PHONY: all vet build test race race-full fmt-check staticcheck vuln smoke smoke-cluster check bench bench-backends bench-eval bench-corpus bench-serve bench-serve-smoke bench-smoke bench-smoke-baseline planner-smoke fuzz-smoke

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive tests (parallel secondary execution, shared
# caches, cross-goroutine searches, the query server) under the race
# detector — the fast subset for local iteration; CI runs race-full.
race:
	$(GO) test -race ./... -run 'Concurrent|Parallel|Serve|Server|Saturation|Drain'

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

# Figure 7 series over both posting backends; each run appends an entry to
# BENCH_backends.json. The third leg serves the stored indexes from memory
# mappings with the posting cache disabled, pinning the raw storage path.
bench-backends:
	$(GO) run ./cmd/axqlbench -scale 0.01 -queries 5 -backend memory -json BENCH_backends.json
	$(GO) run ./cmd/axqlbench -scale 0.01 -queries 5 -backend stored -json BENCH_backends.json
	$(GO) run ./cmd/axqlbench -scale 0.01 -queries 5 -backend stored -mmap -cache -1 -json BENCH_backends.json

# Direct-evaluation time/allocation suite (docs/PERFORMANCE.md); each run
# appends entries to BENCH_eval.json: the memory backend at 0.1 scale, then
# the stored backend cold (posting cache disabled) through the pager and
# through memory mappings — the two storage configurations the fetch-suite
# rows compare.
bench-eval:
	$(GO) run ./cmd/axqlbench -suite eval -scale 0.1 -json BENCH_eval.json
	$(GO) run ./cmd/axqlbench -suite eval -scale 0.05 -backend stored -cache -1 -json BENCH_eval.json
	$(GO) run ./cmd/axqlbench -suite eval -scale 0.05 -backend stored -cache -1 -mmap -json BENCH_eval.json

# Sharded-corpus scatter-gather suite (docs/CORPUS.md): shard-count and
# fan-out parallelism sweep; each run appends an entry to BENCH_corpus.json.
bench-corpus:
	$(GO) run ./cmd/axqlbench -suite corpus -scale 0.05 -json BENCH_corpus.json

# Serving load harness (docs/LOADTEST.md): a 3×3 open-loop (arrival rate ×
# admission bound) sweep at 0.1 scale, then a single full-scale cell; each
# run appends an entry to BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/axqlbench -suite serve -scale 0.1 -queries 5 \
	    -rates 50,200,800 -inflight 2,8,-1 -duration 2s -mix all \
	    -json BENCH_serve.json
	$(GO) run ./cmd/axqlbench -suite serve -scale 1 -queries 5 \
	    -rates 100 -inflight 0 -duration 3s -mix paper \
	    -json BENCH_serve.json

# CI gate for the load harness: one tiny open-loop and one closed-loop cell
# must produce non-zero throughput with no 5xx or transport errors, plus the
# same matrix through a two-node in-process cluster with no partials. The
# run JSON goes under bench-artifacts/ (uncommitted) for CI to upload.
bench-serve-smoke:
	mkdir -p bench-artifacts
	$(GO) run ./cmd/axqlbench -suite serve -scale 0.01 -queries 3 \
	    -rates 40,0 -inflight 0 -duration 1s -check \
	    -json bench-artifacts/BENCH_serve_smoke.json
	$(GO) run ./cmd/axqlbench -suite serve -scale 0.01 -queries 3 \
	    -rates 40,0 -inflight 0 -duration 1s -check -cluster-nodes 2 \
	    -json bench-artifacts/BENCH_serve_smoke.json

# Short fuzz passes over the bundle manifest reader and the B+tree builder
# (fuzzer-chosen key sets and value sizes, read back through every lookup,
# count and rank operation); longer local runs: go test -fuzz <target> in
# the respective package.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzManifest -fuzztime 30s ./internal/backend/
	$(GO) test -run xxx -fuzz FuzzBuild -fuzztime 30s ./internal/storage/

# CI gate for the query planner (docs/PLANNER.md): on every paper-pattern
# point the Auto pick must stay under twice the best forced strategy.
planner-smoke:
	$(GO) run ./cmd/axqlbench -suite eval -scale 0.01 -plannercheck

# Fast benchmark pass for CI: a fixed small iteration count proves the
# benchmarks still compile and run, and the eval leg doubles as a regression
# gate — the run must stay within 1.3x of the latest committed same-scale
# BENCH_eval.json entry on time (points over 200µs) and allocations on every
# paper point. After an intentional performance change, refresh the baseline
# with bench-smoke-baseline and commit the updated BENCH_eval.json.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./internal/eval/ ./internal/index/
	$(GO) run ./cmd/axqlbench -suite eval -scale 0.002 -regress BENCH_eval.json
	$(GO) run ./cmd/axqlbench -suite corpus -scale 0.005

# Record a fresh bench-smoke baseline entry in BENCH_eval.json for the
# bench-smoke regression gate to compare against.
bench-smoke-baseline:
	$(GO) run ./cmd/axqlbench -suite eval -scale 0.002 -json BENCH_eval.json

GO ?= go

# Pinned staticcheck release used by `make lint` and CI. `go run` fetches the
# exact version on demand, so local and CI runs lint with the same binary.
STATICCHECK_VERSION ?= 2025.1

# Pinned govulncheck release for `make vulncheck` and the CI lint job (same
# go run pkg@version pattern as staticcheck).
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test test-shuffle check fmt vet analyze analyze-json analyze-fix vulncheck race race-telemetry race-fault race-serve race-online fault-smoke serve-smoke examples-smoke lint bench bench-smoke perfbench-smoke bench-regression clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-shuffle randomizes test execution order within each package to flush
# out inter-test state; CI runs this instead of plain `make test`.
test-shuffle:
	$(GO) test -shuffle=on ./...

# check is the CI gate: the analyzer suite (which includes stock go vet),
# formatting, and the race-enabled test suite.
check: analyze fmt race

vet:
	$(GO) vet ./...

# Directory for the pipelayer-vet loader's `go list -deps -export` cache.
# Keyed on go.mod/go.sum, the toolchain version, and a stat fingerprint of
# every module source file, so a stale entry is impossible — worst case is a
# miss and a live `go list`. CI caches this directory between runs.
VET_CACHE_DIR ?= .vetcache

# Findings file written by analyze-json; CI uploads it as an artifact.
VET_FINDINGS ?= vet-findings.jsonl

# analyze runs pipelayer-vet: the eleven project-specific analyzers — the
# determinism/telemetry generation (nondeterminism, maporder, floatreduce,
# spawn, sentinelcmp, metricname) and the concurrency-protocol generation
# (ctxflow, lockhold, drainproto, atomicmix, errdrop) — plus the stock go
# vet passes. The analyzers live in internal/analysis on a stdlib-only
# go/analysis-compatible core, so the version is pinned by the Go toolchain
# itself and the module stays dependency-free; see DESIGN.md §4f and §4k
# for the enforced invariants and the escape-hatch grammar.
analyze:
	$(GO) run ./cmd/pipelayer-vet -listcache $(VET_CACHE_DIR) ./...

# analyze-json emits one JSON object per finding (file, line, col, analyzer,
# message, escape-hatch status) to $(VET_FINDINGS). Exit status is the same
# as `make analyze`; the `|| status=$$?` dance keeps the findings file even
# when the run fails, which is exactly when CI wants to upload it.
analyze-json:
	@status=0; $(GO) run ./cmd/pipelayer-vet -listcache $(VET_CACHE_DIR) -json ./... > $(VET_FINDINGS) || status=$$?; \
	echo "findings written to $(VET_FINDINGS)"; exit $$status

# analyze-fix reruns the suite printing a paste-ready annotation template
# under each finding: the exact //pipelayer:allow-<check> line to place above
# the site, with the reason left for the author to fill in. The reason is
# mandatory — a bare directive is itself a finding.
analyze-fix:
	$(GO) run ./cmd/pipelayer-vet -listcache $(VET_CACHE_DIR) -template ./...

# vulncheck needs network access the first time (module proxy fetch of the
# pinned govulncheck); afterwards the module cache makes it hermetic.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# The telemetry registry is the one deliberately concurrent subsystem; run
# its suite under the race detector on its own for a fast signal.
race-telemetry:
	$(GO) test -race ./internal/telemetry/...

# Fault state must only mutate in serial program/tick sections while the
# parallel readout workers read it; this suite proves that under the race
# detector, including the worker-count determinism sweeps.
race-fault:
	$(GO) test -race ./internal/fault/... ./internal/core/...

# The serving layer is all concurrency: bounded queue, batcher, workers
# sharing one shard chain's replica pools, hot swaps, graceful drain. Its
# load/determinism/drain suite and the chain's conformance matrix
# (shards × workers × faults), chaos soak and backpressure tests must hold
# under the race detector.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/... ./internal/shard/...

# The train-while-serve supervisor hot-swaps weight versions into the live
# serving replicas while requests are in flight; this suite — including the
# 200-lane soak spanning multiple promotions with goroutine-leak checks, and
# the checkpoint store's resume-vs-save races — must hold under the race
# detector.
race-online:
	$(GO) test -race -count=1 ./internal/online/... ./internal/checkpoint/...

# serve-smoke is the end-to-end load test: train a small network, fire 200
# concurrent requests through the batching scheduler, fail unless every
# response is bit-identical to the serial path, and print throughput and
# latency percentiles. Tracing is on at full depth: the run verifies that
# each request's queue+batch+compute spans tile its end-to-end latency and
# leaves a Perfetto-loadable trace.json behind.
serve-smoke:
	$(GO) run ./cmd/pipelayer-serve -smoke 200 -train-images 120 -epochs 1 -trace-out trace.json -trace-depth 2
	@test -s trace.json && echo "trace.json written"

# fault-smoke runs the accuracy-vs-fault-density sweep at tiny scale — an
# end-to-end check that injection, remapping, degradation and the JSON
# report all work, not an accuracy measurement.
fault-smoke:
	$(GO) run ./cmd/pipelayer-bench -faults -quick -telemetry "" -faultout BENCH_fault.json > /dev/null
	@test -s BENCH_fault.json && echo "BENCH_fault.json written"

# lint needs network access the first time (module proxy fetch of the pinned
# staticcheck); afterwards the module cache makes it hermetic.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-smoke runs every benchmark in the repo exactly once — a compile-and-
# execute check for the perf harness, not a measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# examples-smoke runs every program under examples/ once and fails on the
# first non-zero exit. `go build ./...` compiles them, but nothing else
# executes them.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; $(GO) run ./$$d; \
	done

# perfbench-smoke checks the repository benchmark (perfbench/, a nested
# module the root build, vet and `make check` never compile): gofmt, vet,
# then a short run of every workload plus one traced run. Each run compares
# every response bit for bit with the serial reference and exits 1 on a
# mismatch, so an internal API or numerics change that breaks the benchmark
# fails here. train-serve runs 10 s: below that some of its six rounds get
# no training Step, and the empty slices' NaN latencies fail the report.
perfbench-smoke:
	@out=$$(gofmt -l perfbench); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	cd perfbench && $(GO) vet ./...
	bash perfbench/run.sh --workload mlp-serve --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload cnn-shard --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload train-serve --seed 1 --seconds 10 --trace 0
	bash perfbench/run.sh --workload cnn-shard --seed 1 --seconds 2 --trace 1

# bench-regression is the benchmark regression gate: paired perfbench runs of
# a base commit and of this checkout on one machine, judged by BENCHMARK.json's
# own end-to-end bounds (pipelayer-bench -diff). BASE is exported with git
# archive under .bench_build/gate/src. mlp-serve and cnn-shard run three
# base/head pairs of 10 s (train-serve's shortest valid run) at seeds 1-3;
# train-serve, whose latency and goodput spread widest between runs, runs
# five pairs of 20 s at seeds 1-5, which the gate judges by their
# interquartile range. Each pair alternates which side runs first: base on
# odd seeds, head on even ones, so neither side always runs on the machine
# the other has just warmed. Each run's whole
# stdout is kept as .bench_build/gate/{base,head}/<workload>-seed<seed>-<attempt>.log.
# A run that perfbench flags `# INVALID` is run again, at most twice, and
# every re-run is printed; the last attempt's result line is the one appended
# to .bench_build/gate/{base,head}/<workload>.jsonl and judged. A run that
# stays invalid is named after the verdict but does not fail the gate yet:
# the load generator still flags runs of unchanged code (ROADMAP item 6).
# Exit 1 names the workload and metric that regressed, a wrong answer, a higher
# failed share or a missing result. About 6 minutes on two cores, more with
# re-runs.
bench-regression:
	@test -n "$(BASE)" || { echo "usage: make bench-regression BASE=<commit>"; exit 2; }
	@git rev-parse --verify --quiet "$(BASE)^{commit}" > /dev/null || { echo "BASE=$(BASE) is not a commit"; exit 2; }
	rm -rf .bench_build/gate
	mkdir -p .bench_build/gate/src .bench_build/gate/base .bench_build/gate/head
	git archive "$(BASE)" | tar -x -C .bench_build/gate/src
	@set -e; : > .bench_build/gate/invalid.txt; for wl in mlp-serve cnn-shard train-serve; do \
		if [ $$wl = train-serve ]; then seeds="1 2 3 4 5"; secs=20; else seeds="1 2 3"; secs=10; fi; \
		for seed in $$seeds; do \
			if [ $$((seed % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
			for side in $$order; do \
				if [ $$side = base ]; then dir=.bench_build/gate/src; else dir=.; fi; \
				for attempt in 1 2 3; do \
					if [ $$attempt -eq 1 ]; then echo "== $$wl seed $$seed: $$side"; \
					else echo "== $$wl seed $$seed: $$side, re-run $$((attempt - 1)) of 2 after an INVALID run"; fi; \
					log=.bench_build/gate/$$side/$$wl-seed$$seed-$$attempt.log; \
					(cd $$dir && bash perfbench/run.sh --workload $$wl --seed $$seed --seconds $$secs --trace 0) > $$log || true; \
					grep -q '^# INVALID' $$log || break; \
				done; \
				tail -n 1 $$log >> .bench_build/gate/$$side/$$wl.jsonl; \
				if grep -q '^# INVALID' $$log; then echo "$$wl seed $$seed $$side" >> .bench_build/gate/invalid.txt; fi; \
			done; \
		done; \
	done
	@status=0; $(GO) run ./cmd/pipelayer-bench -diff .bench_build/gate/base .bench_build/gate/head || status=$$?; \
	if [ -s .bench_build/gate/invalid.txt ]; then \
		echo "bench-regression: still INVALID after 2 re-runs (judged, not failed):"; sed 's/^/  /' .bench_build/gate/invalid.txt; \
	fi; exit $$status

clean:
	rm -f pipelayer-sim pipelayer-train pipelayer-bench pipelayer-serve BENCH_telemetry.json BENCH_fault.json trace.json $(VET_FINDINGS)
	rm -rf $(VET_CACHE_DIR)

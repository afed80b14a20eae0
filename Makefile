GO ?= go

.PHONY: build test verify lint bench-smoke bench-compile bench-paired bench-sched profile quick trace-demo metrics-demo fuzz chaos chaos-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the full pre-merge gate: build, vet, and the test suite
# under the race detector (which also exercises the parallel sweep
# determinism test with real concurrency).
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

# lint runs go vet always, and staticcheck when it is on PATH (CI
# installs a pinned version; local environments without it still get
# the vet pass instead of a hard failure).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it pinned)"; \
	fi

# bench-smoke runs one short iteration of every hot-path benchmark —
# enough to catch a benchmark that no longer compiles or allocates,
# not enough to produce stable numbers (use bench for those).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/sim/ ./internal/model/ ./internal/rt/

# bench-compile builds and runs every benchmark in the module exactly
# once — the CI smoke that catches a benchmark a refactor broke without
# paying measurement time.
bench-compile:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench runs the hot-path benchmarks at measurement length; pipe two
# runs through benchstat to compare (see EXPERIMENTS.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 10 ./internal/sim/ ./internal/rt/

# bench-paired compares the working tree against a baseline commit with
# the paired-minimum methodology (alternated binaries, per-side minimums
# — see scripts/bench_paired.sh and BENCH_hotpath.json). Override knobs:
#   make bench-paired BASE=<commit> PKG=./internal/sim/ BENCH='Benchmark.*' ROUNDS=5
BASE ?= HEAD
PKG ?= ./internal/rt/
BENCH ?= BenchmarkWorkerSteadyState$$
ROUNDS ?= 10
bench-paired:
	BASE=$(BASE) PKG=$(PKG) BENCH='$(BENCH)' ROUNDS=$(ROUNDS) scripts/bench_paired.sh

# bench-sched A/Bs the interleave scheduler on the same binary: the
# round-robin loop against the fill-clock wakeup loop, on the worker
# steady state and the multi-core engine (see BENCH_hotpath.json
# wakeup_scheduler and the EXPERIMENTS.md walkthrough).
bench-sched:
	$(GO) test -run '^$$' -bench 'BenchmarkWorkerSteadyState$$|BenchmarkWorkerSteadyStateWakeup$$|BenchmarkEngineMultiCore' \
		-benchmem -count 6 ./internal/rt/

# profile runs a measured NAT window with host pprof attached — warmup
# packets are excluded from the CPU profile, so it shows only the
# steady-state simulator hot path. See EXPERIMENTS.md "Profiling
# workflow" for reading the output and pairing it with bench-paired.
profile:
	$(GO) run ./cmd/gunfu-bench -attr -nf nat -flows 32768 \
		-warmup 20000 -packets 200000 -tasks 16 \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "inspect with:"
	@echo "  $(GO) tool pprof -top cpu.pprof"
	@echo "  $(GO) tool pprof -top -sample_index=alloc_space mem.pprof"

# quick regenerates every figure with reduced populations.
quick:
	$(GO) run ./cmd/gunfu-bench -exp all -quick -parallel 4

# trace-demo smoke-tests the trace exporter end to end: a small traced
# NAT run producing attribution tables plus a Chrome trace JSON to load
# in ui.perfetto.dev (see EXPERIMENTS.md).
trace-demo:
	$(GO) run ./cmd/gunfu-bench -trace trace_demo.json -attr \
		-nf nat -flows 4096 -packets 8000 -warmup 2000 -tasks 16

# fuzz runs the control-plane wire-protocol fuzz targets for a short
# active burst each (the seed corpus in internal/director/testdata/fuzz
# also runs on every plain `go test`). Override FUZZTIME for longer
# campaigns: make fuzz FUZZTIME=5m
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzProtocolReadMsg$$' -fuzztime $(FUZZTIME) ./internal/director/
	$(GO) test -run '^$$' -fuzz 'FuzzProtocolRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/director/

# chaos runs the control-plane fault drill under the race detector: a
# director and two reconnecting agents behind the deterministic faultnet
# injector, three fixed seeds, goroutine-leak checked.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosSoak' -v ./internal/director/

# chaos-demo boots a real director (-chaos) and two reconnecting
# workers on loopback and lets the fault injector cut connections
# mid-run: the deployment still completes via backoff redials and
# deduped deploy retries. See EXPERIMENTS.md "Chaos walkthrough".
chaos-demo:
	scripts/chaos_demo.sh

# metrics-demo boots a one-worker cluster on loopback, scrapes the
# worker's OpenMetrics endpoint mid-run, breaches an impossible SLO,
# and collects the resulting flight-recorder dump (ui.perfetto.dev).
# Artifacts land in metrics_demo_out/; see EXPERIMENTS.md.
metrics-demo:
	scripts/metrics_demo.sh

# PAC reproduction — common developer targets. Stdlib-only Go; no
# external dependencies.

GO ?= go

.PHONY: all build test test-short test-race smoke serve smoke-serve \
        smoke-cluster smoke-store smoke-recovery bench-cluster chaos \
        vet fmt bench bench-kernel bench-alloc bench-warm test-alloc figures \
        figures-quick examples fuzz fuzz-smoke verify clean

all: vet test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector; the experiment harness runs its
# simulations on a concurrent worker pool, so this is tier-1 for any
# change to internal/experiments.
test-race:
	$(GO) test -race ./...

# End-to-end smoke: the whole paper reproduction at quick scale on four
# workers (output is byte-identical to -parallel 1).
smoke:
	$(GO) run ./cmd/pacsim -experiment all -quick -parallel 4

# Run the pacd simulation service locally (README "Running pacd" has the
# curl examples).
serve:
	$(GO) run ./cmd/pacd -addr :8080

# End-to-end service smoke: start pacd, exercise the API, check the
# memo-hit telemetry, and verify a clean SIGTERM drain.
smoke-serve:
	scripts/smoke_serve.sh

# End-to-end fleet smoke: a pacgw gateway over two pacd backends —
# routing, session-cache affinity, fan-out sweep, backend kill with
# ejection, and a clean gateway drain.
smoke-cluster:
	scripts/smoke_cluster.sh

# End-to-end durable-store smoke: simulate → restart pacd → repeat is a
# disk hit; warm boot seeds the memo; on a 3-node fleet a cold node
# answers from a peer's store. Emits BENCH_store.json.
smoke-store:
	scripts/smoke_store.sh

# End-to-end crash-recovery smoke: SIGKILL a WAL-backed pacd mid-job,
# restart it, and require the journal replay to resume the simulation
# from its last checkpoint with a result identical to an uninterrupted
# run. Also covers pacload -follow SSE resume and torn-journal boot.
# Emits BENCH_recovery.json.
smoke-recovery:
	scripts/smoke_recovery.sh

# Fleet load benchmark: pacload drives the gateway with a mixed hot/cold
# key stream and distills throughput/latency/affinity into
# BENCH_cluster.json.
bench-cluster:
	scripts/bench_cluster.sh

# Chaos smoke under the race detector: the fault-injection subsystem,
# the sim-level fault/equivalence suite, the daemon resilience tests
# (watchdog kills, retry with backoff, panic recovery), and the gateway
# cluster chaos suite (backend death mid-job, dead fleet).
chaos:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -run 'Fault|Chaos|Watchdog|Retr|Panic|Poison' ./internal/sim/ ./internal/server/
	$(GO) test -race -run 'Chaos' ./internal/gateway/

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# One testing.B bench per paper table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Event-kernel baseline: figure benches plus the event-vs-reference
# driver comparison, distilled into BENCH_kernel.json (ns/op, skipped-
# cycle ratios, per-mode speedups).
bench-kernel:
	scripts/bench_baseline.sh

# Allocation baseline: the BenchmarkAllocs suite distilled into
# BENCH_alloc.json (ns/op, B/op, allocs/op). Fails if any steady-state
# path regressed from 0 allocs/op.
bench-alloc:
	scripts/bench_alloc.sh

# Mixed-shape warm baseline: BenchmarkWarmMixed (single-entry vs
# shape-keyed LRU machine cache on an alternating-shape schedule) plus a
# live pacd smoke whose machine-cache hits must exceed misses, distilled
# into BENCH_warm.json. Fails below the 1.30x warm-speedup floor.
bench-warm:
	scripts/bench_warm.sh

# The steady-state zero-alloc unit gates plus the arena aliasing
# oracles. Must run WITHOUT -race: race instrumentation allocates, so
# the gates skip themselves under the race detector.
test-alloc:
	$(GO) test -run 'SteadyStateAllocFree|ScratchReuse|Poison|Aliasing' \
		./internal/coalesce/ ./internal/mshr/ ./internal/hmc/ \
		./internal/core/ ./internal/sim/ ./internal/arena/

# Regenerate every paper artefact at full Table 1 scale.
figures:
	$(GO) run ./cmd/pacsim -experiment all

figures-quick:
	$(GO) run ./cmd/pacsim -experiment all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hbmport
	$(GO) run ./examples/graphanalytics
	$(GO) run ./examples/multiprocess
	$(GO) run ./examples/prefetchdemo

# Short fuzzing passes over the binary-format parser, the coalescing
# pipeline, the gateway's consistent-hash ring, the two durability
# journal parsers (job WAL, store index) and the store's entry envelope.
fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzRead -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzPipeline -fuzztime 30s
	$(GO) test ./internal/gateway/ -fuzz FuzzRing -fuzztime 30s
	$(GO) test ./internal/wal/ -fuzz FuzzRecord -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzJournal -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzEntry -fuzztime 30s

# The CI-sized fuzz pass: ~30s total across every target, on top of the
# always-on seed-corpus replay in the regular test run.
fuzz-smoke:
	$(GO) test ./internal/trace/ -fuzz FuzzRead -fuzztime 5s
	$(GO) test ./internal/core/ -fuzz FuzzPipeline -fuzztime 5s
	$(GO) test ./internal/gateway/ -fuzz FuzzRing -fuzztime 5s
	$(GO) test ./internal/wal/ -fuzz FuzzRecord -fuzztime 5s
	$(GO) test ./internal/store/ -fuzz FuzzJournal -fuzztime 5s
	$(GO) test ./internal/store/ -fuzz FuzzEntry -fuzztime 5s

# The local pre-merge gate: formatting, vet, build, the full test suite,
# and the pinned static analyzers when they are installed (they are
# warn-only, matching the CI gate — this repo is stdlib-only, so both
# tools are optional extras, never build dependencies).
verify:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... || echo "verify: staticcheck findings (warn-only)"; \
	else echo "verify: staticcheck not installed, skipped"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "verify: govulncheck findings (warn-only)"; \
	else echo "verify: govulncheck not installed, skipped"; fi

clean:
	$(GO) clean ./...

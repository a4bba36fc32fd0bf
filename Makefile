GO ?= go

.PHONY: build test verify bench bench-full report serve cluster-smoke store-smoke cli-golden clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate (see ROADMAP.md): gofmt over every tracked Go
# file, static analysis, the full test suite under the race detector, and
# short-budget fuzz passes over the parser-shaped surfaces (assembler, BDI
# codec, fault injector, the warped.trace/v1 wire reader, the packed
# resident trace form) plus the record/replay determinism oracle.
# The parallel experiment engine is exercised concurrently by its own
# tests, so -race is load-bearing here, not ceremonial. The second sim
# pass re-runs the whole package with the SM loop sharded four ways
# (DESIGN.md §17) — every golden and oracle must still hold, and -race
# sweeps the shard workers' actual memory accesses.
verify:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	WARPED_TEST_SM_PARALLEL=4 $(GO) test -race ./internal/sim/...
	$(GO) test -run=^$$ -fuzz=FuzzAssemble -fuzztime=3s ./internal/asm
	$(GO) test -run=^$$ -fuzz=FuzzBDIRoundTrip -fuzztime=3s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSchemeRoundTrip -fuzztime=3s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzInjector -fuzztime=3s ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzTraceRead -fuzztime=3s ./internal/exectrace
	$(GO) test -run=^$$ -fuzz=FuzzPackedStream -fuzztime=3s ./internal/exectrace
	$(GO) test -run=^$$ -fuzz=FuzzRecordReplay -fuzztime=3s ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzStoreRead -fuzztime=3s ./internal/store

# Benchmark-regression workflow (DESIGN.md §12): `make bench` runs the
# benchmark filter BENCH with allocation reporting, BENCHCOUNT times, and
# leaves two timestamped artifacts in the repo root (CI runs it too, with
# BENCHTIME=1x BENCHCOUNT=1 and the commit as STAMP):
#   BENCH_<stamp>.txt   benchstat-comparable text (benchstat old.txt new.txt)
#   BENCH_<stamp>.json  machine-readable warped.bench/v1 trajectory document
BENCH ?= SimulatorThroughput|BDI|RegfileAccess|ConfigSweep|GPUCycleSharded|Compressor|GEMM
BENCHTIME ?= 1s
BENCHCOUNT ?= 5
STAMP := $(shell date -u +%Y%m%dT%H%M%SZ)

bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -benchmem . > BENCH_$(STAMP).txt
	@cat BENCH_$(STAMP).txt
	$(GO) run ./cmd/benchjson -stamp $(STAMP) BENCH_$(STAMP).txt > BENCH_$(STAMP).json

# bench-full runs every benchmark once, including BenchmarkExhibit's
# end-to-end exhibit regenerations (slow), which BENCH leaves out.
bench-full:
	$(GO) test -bench=. -benchmem .

report:
	$(GO) run ./cmd/warpedreport -o report.md

# serve runs the warpedd simulation service (README "Serving", DESIGN.md
# §13). Override the listen address or sizing with SERVE_FLAGS, e.g.
#   make serve SERVE_FLAGS='-addr :9000 -parallel 8 -scale medium'
SERVE_FLAGS ?=
serve:
	$(GO) run ./cmd/warpedd $(SERVE_FLAGS)

# cluster-smoke boots two warpedd workers, shards the smoke campaign
# across them with warpedctl, and asserts the merged report is
# byte-identical to a single-node run (README "Cluster", DESIGN.md §14).
cluster-smoke:
	bash scripts/cluster_smoke.sh

# store-smoke boots a warpedd worker with a disk store, drains it with
# SIGTERM mid-exercise, restarts it on the same store directory, and
# asserts the repeat campaign is served from the store with a
# byte-identical report, and that a trace recorded before the restart
# replays from disk after it (README "Serving", DESIGN.md §16).
store-smoke:
	bash scripts/store_restart_smoke.sh

# cli-golden builds the four engine binaries and byte-compares their
# exhibit, report and -compare outputs and their -h flag names against
# cmd/testdata/cli, and checks that warpedbench rejects an unknown -format
# before any simulation starts (DESIGN.md §21).
cli-golden:
	bash scripts/cli_golden.sh

clean:
	$(GO) clean ./...

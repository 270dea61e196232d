# Tiered checks for the parallel front-end reproduction.
#
#   make test          tier 1: build + full test suite (what CI gates on;
#                      includes the golden determinism suite) + the
#                      perfbench module's own tests
#   make test-alloc    tier 1.5: allocation guards (zero-alloc cycle loop,
#                      zero-alloc free-list reuse) run verbosely on their own
#   make test-robust   tier 1.5: fault-tolerance suite under -race (panic
#                      isolation, failed cells as gaps, exit 1, watchdog,
#                      journal/resume, SIGKILL + resume round trip, SIGINT
#                      drain)
#   make test-sample   tier 1.5: tape-acceleration suite (sampled-vs-full
#                      statistical gate, sampled/sliced golden results,
#                      sliced determinism across worker counts, also under
#                      -race, warm packs and concurrent copies from them
#                      under -race, the warmed structures' copies, block
#                      recording against the reference recorder, its fault,
#                      panic and goroutine-leak checks and the cache's
#                      failing and panicking builds, also under -race, tape
#                      replay and block decode, zero-alloc tape seek/replay
#                      guards, stored fragment decode and live-outs, one
#                      fragment memo per sampled cell and per slice)
#   make test-obs      tier 1.5: observability suite (span tracer alloc guard,
#                      nesting and concurrent cells under -race, Chrome trace
#                      round-trip + merge, traced-vs-untraced determinism)
#   make vet           static hygiene: go vet + gofmt -l (fails on diff);
#                      runs as part of `make test`
#   make race          tier 2: vet + race detector over the short suite
#   make fuzz          tier 3: short-budget fuzz smokes (differential targets)
#   make bench         front-end comparison benchmarks (no -race)
#   make bench-stat    benchstat-ready hot-path, functional-warming,
#                      tape-recording and sampled-window runs
#                      (BENCH_COUNT=10)
#   make bench-json    provenance-stamped JSON report (BENCH_<sha>.json),
#                      every cell simulated
#   make bench-compare regression gate: OLD=a.json NEW=b.json [TOL=0.5]
#   make perfbench     the repository benchmark on one workload:
#                      W=fig8-ci|long-cells|sampled-warm [PERF_TRACE=0|1]
#   make all           tiers 1-3 in order

GO      ?= go
FUZZTIME ?= 10s

# bench-json knobs: which experiment and budgets go into the recorded report.
BENCH_EXP     ?= fig8
BENCH_WARMUP  ?= 20000
BENCH_MEASURE ?= 60000
GIT_SHA       := $(shell git rev-parse --short HEAD 2>/dev/null || echo nogit)

.PHONY: all test test-alloc test-robust test-sample test-obs vet race fuzz bench bench-stat bench-json bench-compare perfbench fmt

all: test test-alloc race fuzz

# perfbench is a module of its own (it imports the repository through a
# replace), so the root ./... does not reach its tests.
test: vet test-robust test-sample test-obs
	$(GO) build ./...
	$(GO) test ./...
	cd perfbench && $(GO) test .

# Static hygiene gate: go vet plus a gofmt cleanliness check that fails (and
# names the offending files) if any file needs reformatting.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fault-tolerance tier, always under -race: the failure/journal/drain paths
# are exactly the ones that run concurrently, so exercising them without the
# race detector would miss their most likely failure mode. The Gap tests pin
# a failed cell as a gap: it runs once, prints FAIL along with every number
# derived from it, and the run exits 1. The integration tests (SIGKILL +
# resume, injected faults, SIGINT drain) build and drive a real pfe-bench
# binary.
test-robust:
	$(GO) test -race -count=1 ./internal/journal/ ./cmd/pfe-bench/ \
		./internal/experiments/ -run 'Robust|Gap|Cancel|Resume|Inject|Kill|Sigint|Journal'
	$(GO) test -race -count=1 ./internal/sim/ -run 'Watchdog|Stall'

# Tape-acceleration tier: the statistical gate behind the sampled numbers
# (every benchmark's sampled-vs-full error within its own 95% CI on a suite
# subset), the sampled/sliced golden results, the sliced determinism suite
# (bit-identical results across slice and worker counts), the warm packs
# (copied and union-built state bit-identical to a replay), the copies
# behind them (each warmed structure's CopyFrom, pinned by its package's
# State round-trip and mismatch tests), block recording against the
# one-instruction reference recorder (byte-identical tapes), tape replay
# against the live emulator through the block decoder, and the zero-alloc
# tape seek/replay guards. TestFromCodeDecode pins every
# fragment's stored register decode and live-outs, which fetch and rename
# read instead of decoding again; TestSampledBuildsEachFragmentOnce (matched
# by TestSampled) pins the one fragment memo a sampled cell shares across its
# warmer and windows, and TestSlicedKeepsOneMemoPerSlice keeps concurrent
# slices apart. The sliced tests run again under -race, since slices run
# detailed simulations concurrently in one process, and so does
# TestWarmStateUnionWarming, whose concurrent cells all copy from one cached
# warm pack. The recorder's tests and the cache's failing and panicking
# builds run under -race too: Record's emulator and encoder run on two
# goroutines, and a build's single-flight waiters on others (a waiter on a
# failed build gets its error and is not counted as a hit). The full
# 12-benchmark gate at paper budgets is `pfe-bench -validate-sampling`.
test-sample:
	$(GO) test -count=1 . -run 'TestSample|TestSampled|TestSliced|TestWarmState'
	$(GO) test -race -count=1 . -run 'TestSliced|TestWarmStateUnionWarming'
	$(GO) test -count=1 ./internal/mem/ ./internal/bpred/ ./internal/rename/ ./internal/tcache/ -run 'State(RoundTrip|SizeMismatch|GeometryMismatch)'
	$(GO) test -count=1 ./internal/frag/ -run TestFromCodeDecode
	$(GO) test -count=1 ./internal/experiments/ -run ValidateSampling
	$(GO) test -count=1 ./internal/artifact/ -run 'TestTapeSeek|TestTapeReplay|TestTapeRecord'
	$(GO) test -race -count=1 ./internal/artifact/ -run 'TestTapeRecord|TestCacheBuild'
	$(GO) test -count=1 ./internal/stats/ -run 'TestSummarize|TestSampleWindows|TestTCrit95'

# Observability tier: the sweep span tracer (nil-tracer alloc guard, nesting
# by parent and time, concurrent cells under -race, Chrome/NDJSON
# round-trips), the sweep/cycle trace merge in pfe-trace, and the
# traced-vs-untraced bit-identity gate.
test-obs:
	$(GO) test -race -count=1 ./internal/obs/span/
	$(GO) test -count=1 ./cmd/pfe-trace/ -run TestMerge
	$(GO) test -count=1 ./cmd/pfe-bench/ -run 'TestTracing|TestSweepTrace'

# Allocation guards, run on their own so a perf PR can iterate on just
# them: the steady-state cycle loop must not allocate at all, and neither
# may a free list's steady-state Get/Put. Both also run as part of
# `make test`.
test-alloc:
	$(GO) test ./internal/sim/ -run TestStepZeroAllocSteadyState -count=1 -v
	$(GO) test ./internal/pool/ -run Alloc -count=1 -v

race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Fuzz smokes: -fuzzminimizetime caps the minimizer, which otherwise spends
# up to 60s per newly-interesting input and makes short budgets useless.
fuzz:
	$(GO) test ./internal/emu/ -run='^$$' -fuzz=FuzzEmuVsInterp -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/program/ -run='^$$' -fuzz=FuzzProgramAsm -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/sim/ -run='^$$' -fuzz=FuzzFrontEndsAgree -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/artifact/ -run='^$$' -fuzz=FuzzTapeSeekReplay -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-stat emits benchstat-ready samples of the hot-path suite (ns/op,
# allocs/op, ns/sim-cycle per front-end config), of the functional-warming
# kernel (ns/inst, union and solo), of tape recording (ns per recorded
# instruction, at one and two CPUs: the recorder's two stages overlap only
# on a second core) and of a sampled cell's detailed windows alone (ns per
# detailed instruction, without its warming). Record before and after a
# perf change, then `benchstat old.txt new.txt`:
#
#   make bench-stat > old.txt
#   ... apply change ...
#   make bench-stat > new.txt
BENCH_COUNT ?= 10
bench-stat:
	$(GO) test ./internal/sim -run='^$$' -bench BenchmarkHotSim -benchmem -count=$(BENCH_COUNT)
	$(GO) test . -run='^$$' -bench 'BenchmarkFunctionalWarming|BenchmarkSampledWindows' -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/artifact -run='^$$' -bench BenchmarkTapeRecord -benchmem -cpu 1,2 -count=$(BENCH_COUNT)

# bench-json records a provenance-stamped machine-readable report for the
# current commit. It builds a real binary first: `go build` embeds the VCS
# revision via debug.ReadBuildInfo, `go run` does not.
bench-json:
	$(GO) build -o bin/pfe-bench ./cmd/pfe-bench
	./bin/pfe-bench -exp $(BENCH_EXP) -warmup $(BENCH_WARMUP) -measure $(BENCH_MEASURE) \
		-json BENCH_$(GIT_SHA).json
	@echo wrote BENCH_$(GIT_SHA).json

# bench-compare gates NEW against OLD: exits non-zero on an IPC regression
# beyond TOL percent (or a host-throughput collapse beyond TTOL percent).
# Flags must precede the positional report paths.
TOL  ?= 0.5
TTOL ?= 25
bench-compare:
	$(GO) build -o bin/pfe-bench ./cmd/pfe-bench
	./bin/pfe-bench -tol $(TOL) -ttol $(TTOL) -compare $(OLD) $(NEW)

# perfbench runs the repository benchmark (BENCHMARK.json, perfbench/README.md)
# on one workload and prints its metrics; the last line is the JSON result.
# To measure a perf change, alternate runs of the parent and the change (see
# perfbench/README.md for the workloads and their spreads).
W          ?= long-cells
PERF_TRACE ?= 0
perfbench:
	python3 perfbench/run.py --workload $(W) --seed 0 --seconds 30 --trace $(PERF_TRACE)

fmt:
	gofmt -l -w .

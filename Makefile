# Checks for the parallel front-end reproduction.
#
#   make test          vet, build, then the whole test suite under the race
#                      detector (golden determinism, fault tolerance,
#                      sampling, tracing: every test of every package), then
#                      the perfbench module's own tests
#   make test-alloc    allocation guards (zero-alloc cycle loop, zero-alloc
#                      free-list reuse) run verbosely without the race
#                      detector, whose runtime allocates
#   make vet           static hygiene: go vet + gofmt -l (fails on diff);
#                      runs as part of `make test`
#   make fuzz          short-budget fuzz smokes (differential targets)
#   make bench         front-end comparison benchmarks (no -race)
#   make bench-stat    benchstat-ready hot-path, functional-warming,
#                      tape-recording, tape-replay and sampled-window runs
#                      (BENCH_COUNT=10)
#   make bench-json    provenance-stamped JSON report (BENCH_<sha>.json),
#                      every cell simulated
#   make bench-compare regression gate: OLD=a.json NEW=b.json [TOL=0.5]
#   make perfbench     the repository benchmark on one workload:
#                      W=fig8-ci|long-cells|sampled-warm [PERF_TRACE=0|1]
#   make all           test, test-alloc and fuzz in order

GO      ?= go
FUZZTIME ?= 10s

# bench-json knobs: which experiment and budgets go into the recorded report.
BENCH_EXP     ?= fig8
BENCH_WARMUP  ?= 20000
BENCH_MEASURE ?= 60000
GIT_SHA       := $(shell git rev-parse --short HEAD 2>/dev/null || echo nogit)

.PHONY: all test test-alloc vet fuzz bench bench-stat bench-json bench-compare perfbench fmt

all: test test-alloc fuzz

# One test command: every test runs under -race, since the sweep, the tape
# recorder, the artifact cache and the tracer all run on several goroutines.
# perfbench is a module of its own (it imports the repository through a
# replace), so the root ./... does not reach its tests.
test: vet
	$(GO) build ./...
	$(GO) test -race -count=1 ./...
	cd perfbench && $(GO) test .

# Static hygiene gate: go vet plus a gofmt cleanliness check that fails (and
# names the offending files) if any file needs reformatting.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Allocation guards, run on their own so a perf PR can iterate on just
# them: the steady-state cycle loop must not allocate at all, and neither
# may a free list's steady-state Get/Put. They run without -race because
# allocation counts are meant without the race runtime; `go test ./...`
# runs them the same way.
test-alloc:
	$(GO) test ./internal/sim/ -run TestStepZeroAllocSteadyState -count=1 -v
	$(GO) test ./internal/pool/ -run Alloc -count=1 -v

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
# kernel (ns/inst: union, solo and gap), of tape recording (ns per recorded
# instruction, at one and two CPUs: the recorder's two stages overlap only
# on a second core), of tape replay (ns per replayed instruction: ReadBlock
# in the fetch stream's 11-instruction refills and in 256-instruction
# blocks, and ReadRun a run at a time, as warming reads) and of a sampled
# cell's detailed windows alone (ns per detailed instruction, without its
# warming). Record before and after a perf change, then
# `benchstat old.txt new.txt`:
#
#   make bench-stat > old.txt
#   ... apply change ...
#   make bench-stat > new.txt
BENCH_COUNT ?= 10
bench-stat:
	$(GO) test ./internal/sim -run='^$$' -bench BenchmarkHotSim -benchmem -count=$(BENCH_COUNT)
	$(GO) test . -run='^$$' -bench 'BenchmarkFunctionalWarming|BenchmarkSampledWindows' -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/artifact -run='^$$' -bench BenchmarkTapeRecord -benchmem -cpu 1,2 -count=$(BENCH_COUNT)
	$(GO) test ./internal/artifact -run='^$$' -bench BenchmarkTapeReplay -benchmem -count=$(BENCH_COUNT)

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

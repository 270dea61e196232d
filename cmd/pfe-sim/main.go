// pfe-sim runs one front-end configuration on one benchmark and prints
// detailed statistics. With a comma-separated -frontend list it compares
// several configurations on the same workload, sharing the built program
// image and the recorded oracle tape across runs (see internal/artifact).
//
// Usage:
//
//	pfe-sim -bench gcc -frontend PR-2x8w
//	pfe-sim -bench gcc -frontend W16,TC,PR-2x8w    # one workload, many configs
//	pfe-sim -bench gzip -frontend TC -l1i 32 -measure 500000
//	pfe-sim -bench gcc -selfprofile                   # where does sim time go?
//
// For a CPU profile of the simulator, run the hot-path benchmark under the
// Go profiler: go test ./internal/sim -run '^$' -bench BenchmarkHotSim
// -cpuprofile cpu.out.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/obs"
)

func main() {
	var (
		bench    = flag.String("bench", "gcc", "benchmark name (see -listbenches)")
		frontend = flag.String("frontend", "PR-2x8w", "front-end(s), comma-separated: W16, TC, TC2x, PF-2x8w, PF-4x4w, PR-2x8w, PR-4x4w, TC+PR-2x8w, TC+PR-4x4w")
		l1iKB    = flag.Int("l1i", 0, "override total L1 instruction storage in KB (0 = preset default)")
		predEnt  = flag.Int("pred", 0, "override fragment predictor primary entries (0 = 64K)")
		warmup   = flag.Int64("warmup", 100_000, "warmup instructions")
		measure  = flag.Int64("measure", 300_000, "measured instructions")
		listB    = flag.Bool("listbenches", false, "list benchmark names and exit")
		trace    = flag.Uint64("trace", 0, "print a per-cycle pipeline trace for the first N cycles")
		selfProf = flag.Bool("selfprofile", false, "attribute the simulator's own wall time per pipeline stage (sampled)")
	)
	flag.Parse()

	if *listB {
		for _, b := range pfe.Benchmarks() {
			fmt.Println(b)
		}
		return
	}

	frontends := strings.Split(*frontend, ",")
	opts := pfe.RunOptions{WarmupInsts: *warmup, MeasureInsts: *measure, SelfProfile: *selfProf}
	if *trace > 0 {
		opts.Trace = os.Stdout
		opts.TraceCycles = *trace
	}
	// Reuse only pays off when several runs share the workload, which is
	// one program and one tape: the cache needs no cap.
	if len(frontends) > 1 {
		opts.Artifacts = artifact.New(0)
	}
	for i, fe := range frontends {
		m := pfe.Preset(pfe.FrontEnd(strings.TrimSpace(fe)))
		if *l1iKB > 0 {
			m = m.WithTotalL1I(*l1iKB)
		}
		if *predEnt > 0 {
			m = m.WithPredictorEntries(*predEnt)
		}
		res, err := pfe.Run(*bench, m, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println()
		}
		printResult(res)
	}
	if opts.Artifacts != nil {
		s := opts.Artifacts.Stats()
		fmt.Fprintf(os.Stderr, "artifacts: %d reused / %d built, %.1f MiB cached (%.1f MiB tapes)\n",
			s.Hits(), s.Misses(), float64(s.Bytes)/(1<<20), float64(s.TapeBytes)/(1<<20))
	}
}

func printResult(res *pfe.Result) {
	fmt.Println(res)
	fmt.Printf("  fetch slot utilization: %.3f\n", res.FetchSlotUtilization)
	fmt.Printf("  fragment prediction:    %.3f (of generated fragments, wrong-path included)\n", res.FragPredAccuracy)
	fmt.Printf("  redirects:              %d\n", res.Redirects)
	fmt.Printf("  L1I miss rate:          %.4f\n", res.L1IMissRate)
	fmt.Printf("  L1D miss rate:          %.4f\n", res.L1DMissRate)
	if res.TCHitRate > 0 {
		fmt.Printf("  trace cache hit rate:   %.3f\n", res.TCHitRate)
	}
	if res.BufferReuseRate > 0 {
		fmt.Printf("  buffer reuse rate:      %.3f\n", res.BufferReuseRate)
		fmt.Printf("  constructed early:      %.3f\n", res.FragsConstructedEarly)
	}
	if res.LiveOutMispredicts > 0 || res.LiveOutMisses > 0 {
		fmt.Printf("  live-out mispredicts:   %d (misses %d)\n", res.LiveOutMispredicts, res.LiveOutMisses)
		fmt.Printf("  renamed before source:  %.3f\n", res.RenamedBeforeSourceFrac)
	}
	if len(res.StageSeconds) > 0 {
		fmt.Printf("simulator stage wall time (sampled):\n%s", obs.FormatStageSeconds(res.StageSeconds))
	}
}

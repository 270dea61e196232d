package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// The golden determinism suite pins every front-end configuration's Result —
// counters, rates, histograms and the full pipeline event stream — against
// testdata/golden_determinism.json, which was recorded from the seed
// (pre-pooling) implementation. Any state leaked across cycles, fragments or
// simulations by the reuse paths shows up here as a bit-level diff.
//
// Regenerate (only when an intentional simulation-behaviour change is made):
//
//	go test ./internal/sim -run TestGoldenDeterminism -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_determinism.json from the current implementation")

const goldenPath = "testdata/golden_determinism.json"

// goldenConfigs returns every front-end mechanism the paper evaluates, in a
// fixed order: the W16 baseline, trace caches, parallel fetch with 2 and 4
// sequencers, parallel and delayed rename, and the TC+PR hybrid.
func goldenConfigs() []core.Config {
	mk := func(name string, fetch core.FetchKind, ren core.RenameKind, nseq, wseq int) core.Config {
		cfg := feConfig(name, fetch, ren)
		if fetch == core.FetchParallel {
			cfg.Sequencers, cfg.SeqWidth = nseq, wseq
		}
		if ren == core.RenameParallel || ren == core.RenameDelayed {
			cfg.Renamers, cfg.RenWidth = nseq, wseq
		}
		return cfg
	}
	cfgs := []core.Config{
		mk("W16", core.FetchSequential, core.RenameSequential, 0, 0),
		mk("TC", core.FetchTraceCache, core.RenameSequential, 0, 0),
		mk("PF-2x8w", core.FetchParallel, core.RenameSequential, 2, 8),
		mk("PF-4x4w", core.FetchParallel, core.RenameSequential, 4, 4),
		mk("PF-8x2w", core.FetchParallel, core.RenameSequential, 8, 2),
		mk("PR-2x8w", core.FetchParallel, core.RenameParallel, 2, 8),
		mk("PR-4x4w", core.FetchParallel, core.RenameParallel, 4, 4),
		mk("PRd-2x8w", core.FetchParallel, core.RenameDelayed, 2, 8),
		mk("PRd-4x4w", core.FetchParallel, core.RenameDelayed, 4, 4),
		mk("TC+PR-2x8w", core.FetchTraceCache, core.RenameParallel, 2, 8),
	}
	// TC2x: double the trace cache against the same workload.
	tc2 := mk("TC2x", core.FetchTraceCache, core.RenameSequential, 0, 0)
	tc2.TraceCache = 64 << 10
	cfgs = append(cfgs, tc2)
	// Non-default fragment selection: the longest fragments the ID can
	// name and short ones, on the baseline and on parallel rename. Every
	// entry above runs the paper's (16, 8), so these are what pin the
	// heuristics-dependent paths (fragment construction, the true-path
	// split, the predictor's fragment IDs).
	for _, h := range []frag.Heuristics{{MaxLen: 32, BranchCutoff: 16}, {MaxLen: 8, BranchCutoff: 4}} {
		suffix := fmt.Sprintf("-h%dx%d", h.MaxLen, h.BranchCutoff)
		w := mk("W16"+suffix, core.FetchSequential, core.RenameSequential, 0, 0)
		pr := mk("PR-2x8w"+suffix, core.FetchParallel, core.RenameParallel, 2, 8)
		w.FragHeuristics, pr.FragHeuristics = h, h
		cfgs = append(cfgs, w, pr)
	}
	return cfgs
}

// goldenWorkloads returns the fixed-seed programs the suite runs. Both are
// fully deterministic builds: same seed, same code image, same data image.
func goldenWorkloads(t testing.TB) map[string]*program.Program {
	t.Helper()
	ws := map[string]*program.Program{}
	spec := program.TestSpec()
	spec.PhaseIters = 2000
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ws["testspec"] = p

	gcc, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	pg, err := program.Build(gcc)
	if err != nil {
		t.Fatal(err)
	}
	ws["gcc"] = pg
	return ws
}

// eventHasher folds every pipeline event into an FNV-1a stream hash: equal
// simulations produce equal (count, hash) pairs, and any reordering, dropped
// or altered event changes the hash.
type eventHasher struct {
	n    int64
	hash uint64
}

func (h *eventHasher) Emit(e trace.Event) {
	h.n++
	const prime = 1099511628211
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h.hash ^= v & 0xff
			h.hash *= prime
			v >>= 8
		}
	}
	if h.hash == 0 {
		h.hash = 14695981039346656037
	}
	mix(e.Cycle)
	mix(uint64(e.Kind))
	mix(e.Seq)
	mix(e.Frag)
	mix(e.PC)
	mix(uint64(uint16(e.Lane)))
	mix(uint64(uint32(e.N)))
	mix(uint64(e.Cause))
	mix(e.Arg)
}

// histRecord serializes one histogram bit-exactly.
type histRecord struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets"`
}

func recordHist(h *metrics.Histogram) histRecord {
	r := histRecord{Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
	for i := 0; i <= h.NumBuckets(); i++ {
		_, _, c := h.Bucket(i)
		r.Buckets = append(r.Buckets, c)
	}
	return r
}

// goldenRecord is one (config, workload) cell. Floats are stored as IEEE-754
// bit patterns so the comparison is bit-identical, not epsilon-based.
type goldenRecord struct {
	Config   string `json:"config"`
	Workload string `json:"workload"`

	Cycles    uint64 `json:"cycles"`
	Committed int64  `json:"committed"`
	IPCBits   uint64 `json:"ipc_bits"`

	FrontEnd core.Stats `json:"front_end"`

	FragPredAccuracyBits uint64 `json:"frag_pred_accuracy_bits"`
	L1IMissRateBits      uint64 `json:"l1i_miss_rate_bits"`
	L1DMissRateBits      uint64 `json:"l1d_miss_rate_bits"`
	TCHitRateBits        uint64 `json:"tc_hit_rate_bits"`
	BufferReuseRateBits  uint64 `json:"buffer_reuse_rate_bits"`

	FragLen      histRecord `json:"frag_len"`
	BufResidency histRecord `json:"buf_residency"`
	SquashDepth  histRecord `json:"squash_depth"`

	EventCount int64  `json:"event_count"`
	EventHash  uint64 `json:"event_hash"`
}

func runGoldenCell(t testing.TB, fe core.Config, workload string, p *program.Program) goldenRecord {
	t.Helper()
	hasher := &eventHasher{}
	cfg := testConfig(fe)
	cfg.Events = hasher
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", fe.Name, workload, err)
	}
	return goldenRecord{
		Config:               fe.Name,
		Workload:             workload,
		Cycles:               r.Cycles,
		Committed:            r.Committed,
		IPCBits:              math.Float64bits(r.IPC),
		FrontEnd:             r.FrontEnd,
		FragPredAccuracyBits: math.Float64bits(r.FragPredAccuracy),
		L1IMissRateBits:      math.Float64bits(r.L1IMissRate),
		L1DMissRateBits:      math.Float64bits(r.L1DMissRate),
		TCHitRateBits:        math.Float64bits(r.TCHitRate),
		BufferReuseRateBits:  math.Float64bits(r.BufferReuseRate),
		FragLen:              recordHist(r.Pipeline.FragLen),
		BufResidency:         recordHist(r.Pipeline.BufResidency),
		SquashDepth:          recordHist(r.Pipeline.SquashDepth),
		EventCount:           hasher.n,
		EventHash:            hasher.hash,
	}
}

func TestGoldenDeterminism(t *testing.T) {
	workloads := goldenWorkloads(t)
	names := []string{"testspec", "gcc"}

	var got []goldenRecord
	for _, cfg := range goldenConfigs() {
		for _, wname := range names {
			got = append(got, runGoldenCell(t, cfg, wname, workloads[wname]))
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to record): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Config != g.Config || w.Workload != g.Workload {
			t.Fatalf("record %d: cell mismatch: golden %s/%s vs run %s/%s",
				i, w.Config, w.Workload, g.Config, g.Workload)
		}
		if diff := diffRecords(w, g); diff != "" {
			t.Errorf("%s/%s diverges from the pinned implementation:\n%s", w.Config, w.Workload, diff)
		}
	}
}

// diffRecords renders a field-by-field diff (empty when bit-identical).
func diffRecords(w, g goldenRecord) string {
	var diff string
	add := func(field string, want, got any) {
		diff += fmt.Sprintf("  %-24s golden=%v got=%v\n", field, want, got)
	}
	if w.Cycles != g.Cycles {
		add("Cycles", w.Cycles, g.Cycles)
	}
	if w.Committed != g.Committed {
		add("Committed", w.Committed, g.Committed)
	}
	if w.IPCBits != g.IPCBits {
		add("IPC", math.Float64frombits(w.IPCBits), math.Float64frombits(g.IPCBits))
	}
	if w.FrontEnd != g.FrontEnd {
		add("FrontEnd", w.FrontEnd, g.FrontEnd)
	}
	if w.FragPredAccuracyBits != g.FragPredAccuracyBits {
		add("FragPredAccuracy", math.Float64frombits(w.FragPredAccuracyBits), math.Float64frombits(g.FragPredAccuracyBits))
	}
	if w.L1IMissRateBits != g.L1IMissRateBits {
		add("L1IMissRate", math.Float64frombits(w.L1IMissRateBits), math.Float64frombits(g.L1IMissRateBits))
	}
	if w.L1DMissRateBits != g.L1DMissRateBits {
		add("L1DMissRate", math.Float64frombits(w.L1DMissRateBits), math.Float64frombits(g.L1DMissRateBits))
	}
	if w.TCHitRateBits != g.TCHitRateBits {
		add("TCHitRate", math.Float64frombits(w.TCHitRateBits), math.Float64frombits(g.TCHitRateBits))
	}
	if w.BufferReuseRateBits != g.BufferReuseRateBits {
		add("BufferReuseRate", math.Float64frombits(w.BufferReuseRateBits), math.Float64frombits(g.BufferReuseRateBits))
	}
	hists := []struct {
		name string
		w, g histRecord
	}{
		{"FragLen", w.FragLen, g.FragLen},
		{"BufResidency", w.BufResidency, g.BufResidency},
		{"SquashDepth", w.SquashDepth, g.SquashDepth},
	}
	for _, h := range hists {
		if h.w.Count != h.g.Count || h.w.Sum != h.g.Sum || h.w.Max != h.g.Max || !equalInt64s(h.w.Buckets, h.g.Buckets) {
			add(h.name, h.w, h.g)
		}
	}
	if w.EventCount != g.EventCount {
		add("EventCount", w.EventCount, g.EventCount)
	}
	if w.EventHash != g.EventHash {
		add("EventHash", w.EventHash, g.EventHash)
	}
	return diff
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGoldenRepeatability runs the same cell twice in one process and
// demands bit-identical results — the direct check that nothing (pools,
// free-lists, predictor state) leaks from one simulation into the next.
func TestGoldenRepeatability(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := program.TestSpec()
	spec.PhaseIters = 2000
	p1, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range goldenConfigs() {
		a := runGoldenCell(t, cfg, "testspec", p1)
		b := runGoldenCell(t, cfg, "testspec", p2)
		if diff := diffRecords(a, b); diff != "" {
			t.Errorf("%s: two identical runs diverge (state leaked between sims):\n%s", cfg.Name, diff)
		}
	}
}

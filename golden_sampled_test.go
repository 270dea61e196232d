package pfe

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
)

// sampledGoldenPath pins sampled results to values recorded from
// the implementation before functional warming was rebuilt as one block
// kernel. The warm-state tests compare solo warming against union warming
// and cold builds against cache hits; a change shared by both sides passes
// them trivially. This file is the absolute reference. It is never
// regenerated to make a warming change pass: a mismatch means the warmed
// state changed.
const sampledGoldenPath = "testdata/golden_sampled.json"

// sampledGoldenRecord is one cell. Floats are stored as IEEE-754 bit
// patterns, so the comparison is bit-identical and +Inf survives JSON.
type sampledGoldenRecord struct {
	Cell      string `json:"cell"`
	Cycles    uint64 `json:"cycles"`
	Committed int64  `json:"committed"`
	IPCBits   uint64 `json:"ipc_bits"`

	// Front-end counters and the rates derived from them.
	LiveOutMispredicts int64             `json:"live_out_mispredicts"`
	LiveOutMisses      int64             `json:"live_out_misses"`
	Redirects          int64             `json:"redirects"`
	RateBits           map[string]uint64 `json:"rate_bits"`
	Pipeline           [][2]int64        `json:"pipeline"` // per histogram: count, sum

	WindowIPCBits []uint64 `json:"window_ipc_bits,omitempty"`
}

func recordSampledGolden(cell string, r *Result) sampledGoldenRecord {
	rec := sampledGoldenRecord{
		Cell:               cell,
		Cycles:             r.Cycles,
		Committed:          r.Committed,
		IPCBits:            math.Float64bits(r.IPC),
		LiveOutMispredicts: r.LiveOutMispredicts,
		LiveOutMisses:      r.LiveOutMisses,
		Redirects:          r.Redirects,
		RateBits: map[string]uint64{
			"fetch_slot_utilization":     math.Float64bits(r.FetchSlotUtilization),
			"fetch_rate":                 math.Float64bits(r.FetchRate),
			"rename_rate":                math.Float64bits(r.RenameRate),
			"frag_pred_accuracy":         math.Float64bits(r.FragPredAccuracy),
			"l1i_miss_rate":              math.Float64bits(r.L1IMissRate),
			"l1d_miss_rate":              math.Float64bits(r.L1DMissRate),
			"tc_hit_rate":                math.Float64bits(r.TCHitRate),
			"buffer_reuse_rate":          math.Float64bits(r.BufferReuseRate),
			"frags_constructed_early":    math.Float64bits(r.FragsConstructedEarly),
			"renamed_before_source_frac": math.Float64bits(r.RenamedBeforeSourceFrac),
		},
	}
	for _, h := range r.Pipeline.All() {
		rec.Pipeline = append(rec.Pipeline, [2]int64{h.Count(), h.Sum()})
	}
	if s := r.Sampling; s != nil {
		for _, ipc := range s.WindowIPCs {
			rec.WindowIPCBits = append(rec.WindowIPCBits, math.Float64bits(ipc))
		}
		rec.RateBits["ipc_ci95"] = math.Float64bits(s.IPCCI95)
	}
	return rec
}

// TestSampledGolden runs sampled gcc on five machines that together span
// three prediction loops (the default one, 32-instruction fragments, and a
// 10-bit predictor index), two hierarchies, a trace cache and a live-out
// predictor. Every cell shares one artifact cache whose roster holds them
// all: the first cell union-warms the 298.5K-instruction prefix for every
// class and the others restore their sections. Gaps between windows are
// warmed per cell.
func TestSampledGolden(t *testing.T) {
	type cell struct {
		name string
		m    Machine
	}
	cells := []cell{
		{"W16", Preset(W16)},
		{"TC", Preset(TC)},
		{"PR-2x8w", Preset(PR2x8w)},
		{"PR-2x8w/frag32-16", Preset(PR2x8w).WithFragmentHeuristics(32, 16)},
		{"W16/pred1024", Preset(W16).WithPredictorEntries(1024)},
	}
	roster := make([]Machine, len(cells))
	for i, c := range cells {
		roster[i] = c.m
	}
	cache := artifact.New(0)
	var got []sampledGoldenRecord
	for _, c := range cells {
		opts := RunOptions{
			WarmupInsts:  300_000,
			MeasureInsts: 60_000,
			Artifacts:    cache,
			WarmRoster:   roster,
			Sample:       &SampleSpec{Unit: 1_000, Period: 5_000, Warmup: 1_500},
		}
		r, err := Run("gcc", c.m, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, recordSampledGolden(c.name, r))
	}
	// One union build for the sampled boundary, restored by the other four
	// cells.
	if s := cache.Stats(); s.WarmMisses != 1 || s.WarmHits != 4 {
		t.Errorf("warm traffic: %d hits / %d misses, want 4 / 1", s.WarmHits, s.WarmMisses)
	}

	data, err := os.ReadFile(sampledGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []sampledGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			w, _ := json.Marshal(want[i])
			g, _ := json.Marshal(got[i])
			t.Errorf("%s diverges from the pinned results:\n golden %s\n got    %s", want[i].Cell, w, g)
		}
	}
}

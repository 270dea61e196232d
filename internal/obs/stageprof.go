// Package obs is the harness's report-after-the-run observability layer:
// sampled per-stage wall-time self-profiling of the simulator (StageProf),
// the sweep's progress lines with ETA that pfe-bench prints on stderr
// (Tracker), and the machine-readable benchmark provenance schema plus
// regression comparator behind `pfe-bench -json` / `pfe-bench -compare`.
// Sweep-level span tracing lives in the span subpackage.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stage names one wall-time attribution bucket of the simulator itself
// (host-side time, not simulated cycles).
type Stage int

const (
	// StageFetch is the fetch engine's share of a front-end cycle.
	StageFetch Stage = iota
	// StageRename is the whole rename stage (admission, renaming, queue
	// bookkeeping). For parallel-rename front-ends, StageRenameP1 and
	// StageRenameP2 additionally break this down; they are a subset of
	// StageRename, not additional time.
	StageRename
	// StageRenameP1 is the parallel renamer's serial allocation phase
	// (live-out prediction + window reservation).
	StageRenameP1
	// StageRenameP2 is the parallel renamer's concurrent renaming phase.
	StageRenameP2
	// StageBackend is the out-of-order back-end (wakeup, execute, commit).
	StageBackend

	numStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	switch s {
	case StageFetch:
		return "fetch"
	case StageRename:
		return "rename"
	case StageRenameP1:
		return "rename_phase1"
	case StageRenameP2:
		return "rename_phase2"
	case StageBackend:
		return "backend"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stages lists every attribution bucket.
func Stages() []Stage {
	return []Stage{StageFetch, StageRename, StageRenameP1, StageRenameP2, StageBackend}
}

// StageProf attributes the simulator's own wall time to pipeline stages via
// cheap sampled timers: one cycle in every SampleEvery is timed with
// time.Now around each stage, and the measured nanoseconds are scaled back
// up by the sampling factor when reported. On unsampled cycles the cost is
// a single branch; a nil *StageProf is valid and always reports unsampled.
//
// A StageProf belongs to one simulation and is not safe for concurrent use;
// a run made of several simulations (a sampled run's windows) sums their
// per-simulation Seconds maps instead.
type StageProf struct {
	mask  uint64
	every int64
	nanos [numStages]int64
}

// DefaultSampleEvery is the default sampling period in cycles.
const DefaultSampleEvery = 64

// NewStageProf returns a profiler sampling one cycle in every `every`
// (rounded up to a power of two; <=0 means DefaultSampleEvery).
func NewStageProf(every int) *StageProf {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	pow := 1
	for pow < every {
		pow <<= 1
	}
	return &StageProf{mask: uint64(pow - 1), every: int64(pow)}
}

// Sampled reports whether the given cycle should be timed: the last cycle of
// each period (63, 127, ... by default), so a run's first cycle, its most
// expensive one, is never scaled up by the sampling factor. Safe on nil.
func (p *StageProf) Sampled(cycle uint64) bool {
	return p != nil && cycle&p.mask == p.mask
}

// SampleEvery returns the sampling period in cycles.
func (p *StageProf) SampleEvery() int64 { return p.every }

// Add attributes a measured duration to a stage.
func (p *StageProf) Add(s Stage, d time.Duration) { p.nanos[s] += int64(d) }

// StageSeconds returns the estimated total wall time of one stage
// (measured sampled time scaled by the sampling factor).
func (p *StageProf) StageSeconds(s Stage) float64 {
	return float64(p.nanos[s]*p.every) / 1e9
}

// Seconds returns the estimated seconds per stage, omitting stages with no
// samples.
func (p *StageProf) Seconds() map[string]float64 {
	if p == nil {
		return nil
	}
	out := map[string]float64{}
	for s := Stage(0); s < numStages; s++ {
		if v := p.StageSeconds(s); v > 0 {
			out[s.String()] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// FormatStageSeconds renders a stage→seconds map sorted by descending
// share, one line per stage.
func FormatStageSeconds(sec map[string]float64) string {
	if len(sec) == 0 {
		return ""
	}
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	var total float64
	for k, v := range sec {
		rows = append(rows, kv{k, v})
		// Phase 1/2 are a sub-breakdown of rename; don't double count.
		if k != StageRenameP1.String() && k != StageRenameP2.String() {
			total += v
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	var b strings.Builder
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * r.v / total
		}
		fmt.Fprintf(&b, "  %-14s %8.3fs  %5.1f%%\n", r.k, r.v, pct)
	}
	return b.String()
}

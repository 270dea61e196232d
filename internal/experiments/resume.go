package experiments

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/journal"
)

// cellRecord is the journal's wire record for one completed cell: identity,
// the config hash the result was produced under, and the full scalar mirror
// of the result. Go's JSON encoder emits the shortest representation that
// round-trips each float64 exactly, so a replayed result is bit-identical
// to the one that was journaled — that is what makes `-resume` produce the
// same report as an uninterrupted run.
type cellRecord struct {
	Exp      string     `json:"exp"`
	Bench    string     `json:"bench"`
	Key      string     `json:"key"`
	Hash     string     `json:"hash"`
	Attempts int        `json:"attempts,omitempty"`
	Result   cellResult `json:"result"`
}

// cellResult mirrors every scalar field of pfe.Result. The Pipeline
// histograms are deliberately not journaled (they are debug artifacts, and
// every renderer is documented nil-tolerant); StageSeconds rides along so
// self-profiled runs resume losslessly.
type cellResult struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`

	Cycles    uint64  `json:"cycles"`
	Committed int64   `json:"committed"`
	IPC       float64 `json:"ipc"`

	FetchSlotUtilization float64 `json:"fetch_slot_util"`
	FetchRate            float64 `json:"fetch_rate"`
	RenameRate           float64 `json:"rename_rate"`

	FragPredAccuracy float64 `json:"frag_pred_accuracy"`
	L1IMissRate      float64 `json:"l1i_miss_rate"`
	L1DMissRate      float64 `json:"l1d_miss_rate"`
	TCHitRate        float64 `json:"tc_hit_rate"`

	BufferReuseRate       float64 `json:"buffer_reuse_rate"`
	FragsConstructedEarly float64 `json:"frags_constructed_early"`

	LiveOutMispredicts      int64   `json:"live_out_mispredicts"`
	LiveOutMisses           int64   `json:"live_out_misses"`
	RenamedBeforeSourceFrac float64 `json:"renamed_before_source_frac"`

	Redirects int64 `json:"redirects"`

	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`

	// Acceleration-mode detail (sampled / time-parallel runs). All omitempty,
	// so exact-mode records — and therefore existing journals — are
	// byte-for-byte unchanged.
	SampledIPC float64           `json:"sampled_ipc,omitempty"`
	Sampling   *pfe.SamplingInfo `json:"sampling,omitempty"`
	Slices     []pfe.SliceInfo   `json:"slices,omitempty"`
}

func newCellRecord(exp string, c *cell, hash string, attempts int, r *pfe.Result) cellRecord {
	return cellRecord{
		Exp:      exp,
		Bench:    c.bench,
		Key:      c.key,
		Hash:     hash,
		Attempts: attempts,
		Result:   toCellResult(r),
	}
}

func toCellResult(r *pfe.Result) cellResult {
	return cellResult{
		Bench:                   r.Bench,
		Config:                  r.Config,
		Cycles:                  r.Cycles,
		Committed:               r.Committed,
		IPC:                     r.IPC,
		FetchSlotUtilization:    r.FetchSlotUtilization,
		FetchRate:               r.FetchRate,
		RenameRate:              r.RenameRate,
		FragPredAccuracy:        r.FragPredAccuracy,
		L1IMissRate:             r.L1IMissRate,
		L1DMissRate:             r.L1DMissRate,
		TCHitRate:               r.TCHitRate,
		BufferReuseRate:         r.BufferReuseRate,
		FragsConstructedEarly:   r.FragsConstructedEarly,
		LiveOutMispredicts:      r.LiveOutMispredicts,
		LiveOutMisses:           r.LiveOutMisses,
		RenamedBeforeSourceFrac: r.RenamedBeforeSourceFrac,
		Redirects:               r.Redirects,
		StageSeconds:            r.StageSeconds,
		SampledIPC:              r.SampledIPC,
		Sampling:                r.Sampling,
		Slices:                  r.Slices,
	}
}

func (cr *cellResult) toResult() *pfe.Result {
	return &pfe.Result{
		Bench:                   cr.Bench,
		Config:                  cr.Config,
		Cycles:                  cr.Cycles,
		Committed:               cr.Committed,
		IPC:                     cr.IPC,
		FetchSlotUtilization:    cr.FetchSlotUtilization,
		FetchRate:               cr.FetchRate,
		RenameRate:              cr.RenameRate,
		FragPredAccuracy:        cr.FragPredAccuracy,
		L1IMissRate:             cr.L1IMissRate,
		L1DMissRate:             cr.L1DMissRate,
		TCHitRate:               cr.TCHitRate,
		BufferReuseRate:         cr.BufferReuseRate,
		FragsConstructedEarly:   cr.FragsConstructedEarly,
		LiveOutMispredicts:      cr.LiveOutMispredicts,
		LiveOutMisses:           cr.LiveOutMisses,
		RenamedBeforeSourceFrac: cr.RenamedBeforeSourceFrac,
		Redirects:               cr.Redirects,
		StageSeconds:            cr.StageSeconds,
		SampledIPC:              cr.SampledIPC,
		Sampling:                cr.Sampling,
		Slices:                  cr.Slices,
	}
}

// Resume is the replay index built from a journal: completed cells keyed by
// (experiment, bench, key), each guarded by the config hash it was produced
// under. Lookups are read-only after load and safe for concurrent workers.
type Resume struct {
	results map[[3]string]*pfe.Result
	hashes  map[[3]string]string

	// Records and Torn report what LoadResume found: valid journal records
	// and trailing torn lines dropped (at most one, from a crash
	// mid-append).
	Records int
	Torn    int

	// Replayed counts cells served from the journal; Mismatched counts
	// journaled cells whose config hash no longer matched the cell about to
	// run (stale journal — the cell is re-run instead of replayed).
	Replayed   atomic.Int64
	Mismatched atomic.Int64
}

// LoadResume reads a journal written by a previous (possibly killed) run
// and builds the replay index. A duplicate (exp, bench, key) keeps the last
// record — the one whose append was acknowledged most recently.
func LoadResume(path string) (*Resume, error) {
	r := &Resume{
		results: map[[3]string]*pfe.Result{},
		hashes:  map[[3]string]string{},
	}
	records, torn, err := journal.Scan(path, func(payload []byte) error {
		var rec cellRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("experiments: resume record: %w", err)
		}
		k := [3]string{rec.Exp, rec.Bench, rec.Key}
		r.results[k] = rec.Result.toResult()
		r.hashes[k] = rec.Hash
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Records, r.Torn = records, torn
	return r, nil
}

// Cells reports how many distinct cells the index can replay.
func (r *Resume) Cells() int { return len(r.results) }

// lookup returns the journaled result for a cell if one exists and its
// config hash matches; a hash mismatch (the determinism cross-check)
// returns ok=false so the caller re-runs the cell.
func (r *Resume) lookup(exp, bench, key, hash string) (*pfe.Result, bool) {
	k := [3]string{exp, bench, key}
	res := r.results[k]
	if res == nil {
		return nil, false
	}
	if r.hashes[k] != hash {
		r.Mismatched.Add(1)
		return nil, false
	}
	r.Replayed.Add(1)
	return res, true
}

package experiments

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/journal"
)

// cellRecord is the journal's wire record for one completed simulation: the
// experiment, benchmark and key of its first requester, the content hash
// (simHash) it was produced under, and the full scalar mirror of the
// result. Go's JSON encoder emits the shortest representation that
// round-trips each float64 exactly, so a replayed result is bit-identical
// to the one that was journaled — that is what makes `-resume` produce the
// same report as an uninterrupted run.
type cellRecord struct {
	Exp    string     `json:"exp"`
	Bench  string     `json:"bench"`
	Key    string     `json:"key"`
	Hash   string     `json:"hash"`
	Result cellResult `json:"result"`
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

	// Sampled-run detail. Both omitempty, so exact-mode records — and
	// therefore existing journals — are byte-for-byte unchanged.
	SampledIPC float64           `json:"sampled_ipc,omitempty"`
	Sampling   *pfe.SamplingInfo `json:"sampling,omitempty"`
}

func newCellRecord(c *cell, hash string, r *pfe.Result) cellRecord {
	return cellRecord{
		Exp:    c.exp,
		Bench:  c.bench,
		Key:    c.key,
		Hash:   hash,
		Result: toCellResult(r),
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
	}
}

// Resume is the replay index built from a journal: completed simulations
// keyed by their content hash, so a journaled result replays for every
// experiment that asks for the same simulation, whatever key it names it
// by. Lookups are read-only after load and safe for concurrent workers.
type Resume struct {
	results map[string]*pfe.Result // simHash -> result
	names   map[[3]string]bool     // (exp, bench, key) of every record

	// Records and Torn report what LoadResume found: valid journal records
	// and trailing torn lines dropped (at most one, from a crash
	// mid-append).
	Records int
	Torn    int

	// Replayed counts cells served from the journal; Mismatched counts
	// cells the journal names (experiment, bench and key) under another
	// hash — a stale journal, or one written before keys left the hash —
	// which are re-run instead of replayed.
	Replayed   atomic.Int64
	Mismatched atomic.Int64
}

// LoadResume reads a journal written by a previous (possibly killed) run
// and builds the replay index. A duplicate hash keeps the last record — the
// one whose append was acknowledged most recently.
func LoadResume(path string) (*Resume, error) {
	r := &Resume{
		results: map[string]*pfe.Result{},
		names:   map[[3]string]bool{},
	}
	records, torn, err := journal.Scan(path, func(payload []byte) error {
		var rec cellRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("experiments: resume record: %w", err)
		}
		r.results[rec.Hash] = rec.Result.toResult()
		r.names[[3]string{rec.Exp, rec.Bench, rec.Key}] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Records, r.Torn = records, torn
	return r, nil
}

// Cells reports how many distinct simulations the index can replay.
func (r *Resume) Cells() int { return len(r.results) }

// lookup returns the journaled result of the simulation with content hash
// hash. A miss on a cell the journal names under another hash counts as a
// mismatch; the caller re-runs the cell either way.
func (r *Resume) lookup(c *cell, hash string) (*pfe.Result, bool) {
	if res := r.results[hash]; res != nil {
		r.Replayed.Add(1)
		return res, true
	}
	if r.names[[3]string{c.exp, c.bench, c.key}] {
		r.Mismatched.Add(1)
	}
	return nil, false
}

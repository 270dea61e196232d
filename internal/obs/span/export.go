package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export. The mapping renders a sweep as a flame timeline
// in Perfetto / chrome://tracing: one process per scheduler worker (pid =
// worker+1, pid 0 is the harness itself — sweep spans and anything not bound
// to a worker) and one thread per sweep cell (tid = cell+1, tid 0 for
// batch-level spans). Durations are "X" complete events in microseconds;
// annotations surface in args.

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func chromePID(r *Record) int { return r.Worker + 1 }
func chromeTID(r *Record) int { return r.Cell + 1 }

// WriteChromeTrace writes the records as a Chrome trace_event JSON document.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	tr := chromeTrace{DisplayTimeUnit: "ms"}

	pids := map[int]bool{}
	tids := map[[2]int]bool{}
	for i := range recs {
		r := &recs[i]
		pid, tid := chromePID(r), chromeTID(r)
		if !pids[pid] {
			pids[pid] = true
			name := "harness"
			if r.Worker >= 0 {
				name = fmt.Sprintf("worker %d", r.Worker)
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "process_name", Cat: "__metadata", Phase: "M",
				PID: pid, Args: map[string]any{"name": name},
			})
		}
		if k := [2]int{pid, tid}; !tids[k] {
			tids[k] = true
			name := "sweep"
			if r.Cell >= 0 {
				name = fmt.Sprintf("cell %d", r.Cell)
				if r.Bench != "" {
					name = fmt.Sprintf("cell %d %s/%s", r.Cell, r.Bench, r.Key)
				}
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Cat: "__metadata", Phase: "M",
				PID: pid, TID: tid, Args: map[string]any{"name": name},
			})
		}

		name := r.Name
		if r.Kind == KindCell && r.Bench != "" {
			name = r.Bench + "/" + r.Key
		}
		args := map[string]any{"kind": r.Kind, "id": uint64(r.ID)}
		if r.Parent != 0 {
			args["parent"] = uint64(r.Parent)
		}
		if r.Bench != "" {
			args["bench"] = r.Bench
		}
		if r.Key != "" {
			args["config"] = r.Key
		}
		if r.Batch != "" {
			args["batch"] = r.Batch
		}
		for _, a := range r.Annots {
			switch {
			case a.Str != "":
				args[a.Key] = a.Str
			case a.Float != 0:
				args[a.Key] = a.Float
			default:
				args[a.Key] = a.Int
			}
		}
		dur := float64(r.EndNs-r.StartNs) / 1e3
		if dur < 1 {
			dur = 1 // sub-µs spans still render
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: name, Cat: r.Kind, Phase: "X",
			TS: float64(r.StartNs) / 1e3, Dur: dur,
			PID: pid, TID: tid, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&tr)
}

// WriteNDJSON writes one span record per line for machine consumption.
func WriteNDJSON(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CellTiming is the per-cell wall-clock breakdown derived from a sweep's
// spans: where cell time went between scheduler queue wait, artifact builds,
// simulation proper, and harness overhead (journal appends, bookkeeping).
type CellTiming struct {
	Batch string `json:"batch,omitempty"`
	Cell  int    `json:"cell"`
	Bench string `json:"bench"`
	Key   string `json:"key"`

	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	BuildSeconds     float64 `json:"build_seconds"`
	SimSeconds       float64 `json:"sim_seconds"`
	OverheadSeconds  float64 `json:"overhead_seconds"`
}

// phase names whose durations count as "build" and "sim" in the breakdown.
// The sim set holds the mutually exclusive top-level work phases of the two
// run modes (full, sampled); their children are not double counted.
var (
	buildPhases = map[string]bool{"program-build": true, "tape-build": true}
	simPhases   = map[string]bool{"sim": true, "window": true, "gap-warm": true}
)

// CellTimings derives the per-cell breakdown from a trace's records.
// Queue wait is measured from the enclosing sweep's start to the cell span's
// start; overhead is the cell duration not attributed to build or sim.
func CellTimings(recs []Record) []CellTiming {
	byID := make(map[ID]*Record, len(recs))
	for i := range recs {
		byID[recs[i].ID] = &recs[i]
	}
	type key struct {
		batch string
		cell  int
	}
	agg := map[key]*CellTiming{}
	var order []key
	for i := range recs {
		r := &recs[i]
		if r.Cell < 0 {
			continue
		}
		k := key{r.Batch, r.Cell}
		ct, ok := agg[k]
		if !ok {
			ct = &CellTiming{Batch: r.Batch, Cell: r.Cell}
			agg[k] = ct
			order = append(order, k)
		}
		sec := float64(r.EndNs-r.StartNs) / 1e9
		switch {
		case r.Kind == KindCell:
			ct.Bench, ct.Key = r.Bench, r.Key
			ct.OverheadSeconds += sec // total for now; build+sim subtracted below
			if sweep, ok := byID[r.Parent]; ok {
				ct.QueueWaitSeconds = float64(r.StartNs-sweep.StartNs) / 1e9
			}
		case buildPhases[r.Name]:
			ct.BuildSeconds += sec
		case simPhases[r.Name]:
			ct.SimSeconds += sec
		}
	}
	out := make([]CellTiming, 0, len(order))
	for _, k := range order {
		ct := agg[k]
		ct.OverheadSeconds -= ct.BuildSeconds + ct.SimSeconds
		if ct.OverheadSeconds < 0 {
			ct.OverheadSeconds = 0
		}
		out = append(out, *ct)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Batch != out[j].Batch {
			return out[i].Batch < out[j].Batch
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

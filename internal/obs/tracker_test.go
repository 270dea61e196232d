package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTrackerCountsFailedCellsAsDone pins the progress line of a batch with
// a failed cell: the failure counts toward the planned total, memoized cells
// stay separate, and the line names both.
func TestTrackerCountsFailedCellsAsDone(t *testing.T) {
	var out strings.Builder
	tr := NewTracker()
	tr.SetLog(&out, time.Hour) // only each batch's last cell prints
	tr.StartExperiment("fig4")
	tr.AddPlanned("fig4", 3)
	tr.SimDone("fig4", time.Millisecond)
	tr.CellFailed("fig4")
	tr.SimDone("fig4", 0)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	for _, want := range []string{"[fig4] 3/3 sims (100%)", "(1 memoized)", "(1 failed)"} {
		if !strings.Contains(last, want) {
			t.Errorf("last progress line %q lacks %q", last, want)
		}
	}
}

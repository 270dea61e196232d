package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTrackerCountsFailedCellsAsDone pins the progress line of a sweep with
// a failed cell: the failure counts toward the planned total, replayed cells
// stay separate, and the line names both.
func TestTrackerCountsFailedCellsAsDone(t *testing.T) {
	var out strings.Builder
	tr := NewTracker()
	tr.SetLog(&out, time.Hour) // only the sweep's last cell prints
	tr.Start()
	tr.AddPlanned(3)
	tr.SimDone(time.Millisecond)
	tr.CellFailed()
	tr.SimDone(0)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	for _, want := range []string{"[sweep] 3/3 sims (100%)", "(1 replayed)", "(1 failed)"} {
		if !strings.Contains(last, want) {
			t.Errorf("last progress line %q lacks %q", last, want)
		}
	}
}

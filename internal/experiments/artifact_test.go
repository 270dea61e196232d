package experiments

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
)

// TestSweepArtifactEquivalence runs the same experiment three ways — cold,
// with a fresh artifact cache (program + tape reuse within the sweep), and
// again on the warm cache (programs and tapes served from it, every cell
// simulated again, since the cache holds no results) — and requires the
// rendered artifact to be identical each time. This is the sweep-level face
// of the cross-path golden guarantee.
func TestSweepArtifactEquivalence(t *testing.T) {
	base := CI()
	base.Benchmarks = []string{"gzip", "mcf"}
	fig8, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}

	cold, err := fig8.Run(base)
	if err != nil {
		t.Fatal(err)
	}

	cached := base
	cached.Artifacts = artifact.New(0)
	warm1, err := fig8.Run(cached)
	if err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm1.String() {
		t.Fatalf("cached sweep diverged from cold sweep:\ncold:\n%s\ncached:\n%s", cold, warm1)
	}
	s := cached.Artifacts.Stats()
	if s.ProgramMisses != 2 || s.TapeMisses != 2 {
		t.Fatalf("two benchmarks should build two programs and two tapes, got %d / %d misses",
			s.ProgramMisses, s.TapeMisses)
	}

	ob := &countingObserver{}
	again := cached
	again.Observer = ob
	warm2, err := fig8.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm2.String() {
		t.Fatalf("sweep on the warm cache diverged from cold sweep:\ncold:\n%s\nwarm:\n%s", cold, warm2)
	}
	s2 := cached.Artifacts.Stats()
	if s2.ProgramMisses != 2 || s2.TapeMisses != 2 || s2.ResultHits != 0 {
		t.Fatalf("second sweep built %d programs and %d tapes and served %d results, want 2, 2 and 0",
			s2.ProgramMisses, s2.TapeMisses, s2.ResultHits)
	}
	if ob.completed != 14 {
		// fig8: 7 configs x 2 benches, each simulated.
		t.Fatalf("second sweep completed %d simulations, want 14", ob.completed)
	}
}

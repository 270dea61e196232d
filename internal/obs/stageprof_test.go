package obs

import "testing"

func TestStageProfSampling(t *testing.T) {
	var nilProf *StageProf
	if nilProf.Sampled(63) {
		t.Error("nil profiler must never sample")
	}
	p := NewStageProf(60) // rounds up to 64
	if p.SampleEvery() != 64 {
		t.Errorf("SampleEvery = %d, want 64", p.SampleEvery())
	}
	// The last cycle of each period is timed, never cycle 0: a run's first
	// cycle is its most expensive and must not be scaled up by 64.
	if p.Sampled(0) || p.Sampled(1) || p.Sampled(64) || !p.Sampled(63) || !p.Sampled(127) {
		t.Error("sampling phase wrong: want cycles 63, 127, ... and not 0 or 64")
	}
	p.Add(StageFetch, 1000) // 1000ns of sampled time
	if got := p.StageSeconds(StageFetch); got != 64e3/1e9 {
		t.Errorf("StageSeconds = %v, want %v (scaled by sampling factor)", got, 64e3/1e9)
	}
	sec := p.Seconds()
	if len(sec) != 1 || sec["fetch"] == 0 {
		t.Errorf("Seconds() = %v, want only a positive fetch entry", sec)
	}
}

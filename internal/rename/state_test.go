package rename

import (
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
)

var stateCfg = LiveOutPredictorConfig{Entries: 256, Ways: 2, TagBits: 4}

func trainLiveOut(lp *LiveOutPredictor, n, seed int) {
	for i := 0; i < n; i++ {
		id := frag.ID{StartPC: uint64(i*seed%61) * 24, BrMask: uint32(i % 9), NumBr: uint8(i % 4)}
		lp.Predict(id)
		lp.Train(id, LiveOuts{RegMask: uint64(i*seed) * 0x9e37, LastWrite: uint32(i % 16)})
	}
}

// TestLiveOutStateRoundTrip: a copied live-out predictor holds exactly its
// source's entries, stamp and counters, in a table of its own — traffic on
// either side leaves the other as it was.
func TestLiveOutStateRoundTrip(t *testing.T) {
	cfg, train := stateCfg, trainLiveOut
	// ref is trained as src is, so it is what src must still hold.
	src, ref := NewLiveOutPredictor(cfg), NewLiveOutPredictor(cfg)
	train(src, 1500, 1)
	train(ref, 1500, 1)

	cp := NewLiveOutPredictor(cfg)
	cp.CopyFrom(src)
	if !reflect.DeepEqual(cp, src) {
		t.Fatal("copy differs from its source")
	}
	if cp.HitRate() == 0 {
		t.Fatal("source was never trained")
	}
	train(cp, 400, 3)
	if !reflect.DeepEqual(src, ref) {
		t.Fatal("training the copy changed its source")
	}

	back := NewLiveOutPredictor(cfg)
	back.CopyFrom(src)
	train(src, 400, 5)
	if !reflect.DeepEqual(back, ref) {
		t.Fatal("training the source changed its copy")
	}
}

// TestLiveOutStateSizeMismatch: copying a live-out predictor from one of
// another size is a bug and panics.
func TestLiveOutStateSizeMismatch(t *testing.T) {
	src := NewLiveOutPredictor(stateCfg)
	trainLiveOut(src, 1500, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("copy across predictor sizes did not panic")
		}
	}()
	NewLiveOutPredictor(LiveOutPredictorConfig{Entries: 512, Ways: 2, TagBits: 4}).CopyFrom(src)
}

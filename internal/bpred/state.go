package bpred

import (
	"encoding/binary"
	"fmt"

	"github.com/parallel-frontend/pfe/internal/frag"
)

// State serialization for the trace predictor and path history, in a
// deterministic fixed-width little-endian layout: warmed predictor tables
// can be snapshotted as content-addressed artifacts and restored bit-exactly
// into an identically configured predictor (see pfe's warm-state
// artifacts). Configuration is not serialized — callers key snapshots on it.

func appendEntries(b []byte, es []entry) []byte {
	for _, e := range es {
		b = binary.LittleEndian.AppendUint64(b, e.id.StartPC)
		b = binary.LittleEndian.AppendUint32(b, e.id.BrMask)
		b = append(b, e.id.NumBr, e.ctr)
	}
	return b
}

func loadEntries(b []byte, es []entry) ([]byte, error) {
	const w = 8 + 4 + 1 + 1
	if len(b) < len(es)*w {
		return nil, fmt.Errorf("bpred: truncated predictor table state")
	}
	for i := range es {
		es[i].id = frag.ID{
			StartPC: binary.LittleEndian.Uint64(b),
			BrMask:  binary.LittleEndian.Uint32(b[8:]),
			NumBr:   b[12],
		}
		es[i].ctr = b[13]
		b = b[w:]
	}
	return b, nil
}

// AppendState appends both table contents and the accuracy counters to b.
func (p *TracePredictor) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.primary)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.secondary)))
	b = appendEntries(b, p.primary)
	b = appendEntries(b, p.secondary)
	for _, c := range [...]int64{p.predicts, p.updates, p.correct, p.fromSec} {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return b
}

// LoadState restores a snapshot written by AppendState into an identically
// sized predictor, returning the remaining bytes.
func (p *TracePredictor) LoadState(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("bpred: truncated predictor state")
	}
	np, ns := int(binary.LittleEndian.Uint32(b)), int(binary.LittleEndian.Uint32(b[4:]))
	if np != len(p.primary) || ns != len(p.secondary) {
		return nil, fmt.Errorf("bpred: predictor state tables %d/%d, predictor has %d/%d",
			np, ns, len(p.primary), len(p.secondary))
	}
	b = b[8:]
	var err error
	if b, err = loadEntries(b, p.primary); err != nil {
		return nil, err
	}
	if b, err = loadEntries(b, p.secondary); err != nil {
		return nil, err
	}
	if len(b) < 8*4 {
		return nil, fmt.Errorf("bpred: truncated predictor counters")
	}
	p.predicts = int64(binary.LittleEndian.Uint64(b))
	p.updates = int64(binary.LittleEndian.Uint64(b[8:]))
	p.correct = int64(binary.LittleEndian.Uint64(b[16:]))
	p.fromSec = int64(binary.LittleEndian.Uint64(b[24:]))
	return b[32:], nil
}

// AppendState appends the history's ring contents to b.
func (h *History) AppendState(b []byte) []byte {
	for _, k := range h.keys {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	return append(b, byte(h.n), byte(h.head))
}

// LoadState restores a history snapshot, returning the remaining bytes.
// The folds are derived from the restored keys, as Push derives them.
func (h *History) LoadState(b []byte) ([]byte, error) {
	if len(b) < maxDepth*8+2 {
		return nil, fmt.Errorf("bpred: truncated history state")
	}
	for i := range h.keys {
		h.keys[i] = binary.LittleEndian.Uint64(b[i*8:])
		h.foldSlot(i)
	}
	b = b[maxDepth*8:]
	h.n, h.head = int(b[0]), int(b[1])
	if h.n < 0 || h.n > maxDepth || h.head < 0 || h.head >= maxDepth {
		return nil, fmt.Errorf("bpred: corrupt history state (n=%d head=%d)", h.n, h.head)
	}
	return b[2:], nil
}

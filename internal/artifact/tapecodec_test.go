package artifact

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/parallel-frontend/pfe/internal/program"
)

// tapeCodecHeaderLen is the fixed tape-frame header: magic, version, startPC,
// count, halted, blockSize, three per-section block counts. Bytes past it
// (the block table and payload) are individually guarded by per-block CRCs;
// the header itself carries no checksum.
const tapeCodecHeaderLen = 4 + 4 + 8 + 8 + 1 + 4 + 4*tapeNumSecs

// tapeStructEqual compares every stored field of two tapes (the program
// pointer is external input to DecodeTape and deliberately excluded).
func tapeStructEqual(a, b *Tape) error {
	switch {
	case a.startPC != b.startPC:
		return fmt.Errorf("startPC %#x != %#x", a.startPC, b.startPC)
	case a.count != b.count:
		return fmt.Errorf("count %d != %d", a.count, b.count)
	case a.halted != b.halted:
		return fmt.Errorf("halted %v != %v", a.halted, b.halted)
	case !bytes.Equal(a.taken, b.taken):
		return fmt.Errorf("taken sections differ (%d vs %d bytes)", len(a.taken), len(b.taken))
	case !bytes.Equal(a.aux, b.aux):
		return fmt.Errorf("aux sections differ (%d vs %d bytes)", len(a.aux), len(b.aux))
	case len(a.index) != len(b.index):
		return fmt.Errorf("index has %d points vs %d", len(a.index), len(b.index))
	}
	for i := range a.index {
		if a.index[i] != b.index[i] {
			return fmt.Errorf("index point %d: %+v != %+v", i, a.index[i], b.index[i])
		}
	}
	return nil
}

// recordSuiteTape builds the named benchmark and records budget instructions.
func recordSuiteTape(tb testing.TB, name string, budget uint64) (*program.Program, *Tape) {
	tb.Helper()
	spec, err := program.SpecByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	tape, err := Record(p, budget)
	if err != nil {
		tb.Fatal(err)
	}
	return p, tape
}

// TestTapeCodecRoundTrip encodes and decodes a truncated recording of every
// suite benchmark and requires the decoded tape to be structurally identical
// and to replay bit-identically — including past the recorded end, where the
// live fallback takes over — and to honor the seek contract.
func TestTapeCodecRoundTrip(t *testing.T) {
	for _, name := range program.SuiteNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			const budget = 2*IndexStride + 137
			p, tape := recordSuiteTape(t, name, budget)
			enc := EncodeTape(tape)
			dec, err := DecodeTape(enc, p)
			if err != nil {
				t.Fatalf("DecodeTape: %v", err)
			}
			if err := tapeStructEqual(tape, dec); err != nil {
				t.Fatalf("decoded tape differs: %v", err)
			}
			// Replay equivalence, original as the reference oracle, through
			// the fallback region.
			drainBoth(t, name, tape.NewReader(), dec.NewReader(), budget+500)
			// Seek-vs-serial on the decoded tape across block boundaries.
			for _, at := range []uint64{0, 1, IndexStride - 1, IndexStride, IndexStride + 1, dec.Len() - 1, dec.Len() + 100} {
				seekAndCompare(t, dec, at, 300)
			}
			t.Logf("%s: %d insts, %d bytes framed (%.3f bytes/inst)",
				name, tape.Len(), len(enc), float64(len(enc))/float64(tape.Len()))
		})
	}
}

// TestTapeCodecHaltedRoundTrip round-trips a recording that reached OpHalt:
// the halt must survive the codec and the decoded replay must end exactly
// where the original does, with no live fallback engaged.
func TestTapeCodecHaltedRoundTrip(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tape.Halted() {
		t.Fatalf("test spec should halt within the budget (recorded %d)", tape.Len())
	}
	dec, err := DecodeTape(EncodeTape(tape), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tapeStructEqual(tape, dec); err != nil {
		t.Fatalf("decoded tape differs: %v", err)
	}
	if !dec.Halted() {
		t.Fatal("halt flag lost in round trip")
	}
	n := drainBoth(t, "halted", tape.NewReader(), dec.NewReader(), 2*tape.Len())
	if n != tape.Len() {
		t.Fatalf("decoded replay drained %d instructions, want %d", n, tape.Len())
	}
	if dec.FallbackSteps() != 0 {
		t.Fatalf("decoded halting tape used the live fallback: %d steps", dec.FallbackSteps())
	}
}

// TestTapeCodecEmpty round-trips the degenerate zero-instruction recording
// (every section empty, no index points).
func TestTapeCodecEmpty(t *testing.T) {
	p, tape := recordSuiteTape(t, "gcc", 0)
	if tape.Len() != 0 {
		t.Fatalf("recorded %d instructions, want 0", tape.Len())
	}
	dec, err := DecodeTape(EncodeTape(tape), p)
	if err != nil {
		t.Fatalf("DecodeTape(empty): %v", err)
	}
	if err := tapeStructEqual(tape, dec); err != nil {
		t.Fatalf("decoded empty tape differs: %v", err)
	}
}

// TestTapeCodecCorruptionDetected drives targeted corruptions — truncation,
// header damage, block-table damage, payload bit flips, trailing garbage —
// through DecodeTape and requires every one to be rejected with an error,
// never a silently wrong tape.
func TestTapeCodecCorruptionDetected(t *testing.T) {
	p, tape := recordSuiteTape(t, "gcc", IndexStride+57)
	enc := EncodeTape(tape)
	if len(enc) <= tapeCodecHeaderLen+13 {
		t.Fatalf("encoding too small to corrupt meaningfully: %d bytes", len(enc))
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-magic", func(b []byte) []byte { return b[:3] }},
		{"truncated-header", func(b []byte) []byte { return b[:tapeCodecHeaderLen-1] }},
		{"truncated-table", func(b []byte) []byte { return b[:tapeCodecHeaderLen+5] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad-version", func(b []byte) []byte { b[4] ^= 0xff; return b }},
		{"zero-block-size", func(b []byte) []byte {
			for i := 25; i < 29; i++ {
				b[i] = 0
			}
			return b
		}},
		{"unknown-block-encoding", func(b []byte) []byte { b[tapeCodecHeaderLen] = 7; return b }},
		{"flipped-table-crc", func(b []byte) []byte { b[tapeCodecHeaderLen+9] ^= 0x01; return b }},
		{"flipped-payload-first", func(b []byte) []byte {
			// First payload byte: header + 13 bytes per table record.
			nblocks := 0
			for s := 0; s < tapeNumSecs; s++ {
				nblocks += int(uint32(b[29+4*s]) | uint32(b[29+4*s+1])<<8 | uint32(b[29+4*s+2])<<16 | uint32(b[29+4*s+3])<<24)
			}
			b[tapeCodecHeaderLen+13*nblocks] ^= 0x01
			return b
		}},
		{"flipped-payload-last", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.corrupt(append([]byte(nil), enc...))
			if dec, err := DecodeTape(mut, p); err == nil {
				t.Fatalf("corrupted encoding decoded without error (count=%d)", dec.Len())
			}
		})
	}
	// The pristine encoding must still decode — the corruptions above, not
	// some unrelated strictness, are what the errors detect.
	if _, err := DecodeTape(enc, p); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}
}

// FuzzTapeBlockCodec is the block-codec differential fuzz target. For a pool
// of real recordings (empty, tiny, multi-block, halted) it checks, per input:
//
//  1. encode → decode reproduces the tape exactly (every stored field);
//  2. a decoded tape's Seek(at) replays bit-identically to a serial walk to
//     the same position (the contract sampling windows rely on);
//  3. a one-byte corruption anywhere past the fixed header (block table or
//     payload — the region the codec's own checksums guard) is rejected.
func FuzzTapeBlockCodec(f *testing.F) {
	gccSpec, err := program.SpecByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	gcc, err := program.Build(gccSpec)
	if err != nil {
		f.Fatal(err)
	}
	halting, err := program.Build(program.TestSpec())
	if err != nil {
		f.Fatal(err)
	}
	type fixture struct {
		prog *program.Program
		tape *Tape
		enc  []byte
	}
	var fixtures []fixture
	for _, budget := range []uint64{0, 1, 137, IndexStride + 5, 2*IndexStride + 137} {
		tape, err := Record(gcc, budget)
		if err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, fixture{gcc, tape, EncodeTape(tape)})
	}
	ht, err := Record(halting, 1_000_000)
	if err != nil {
		f.Fatal(err)
	}
	fixtures = append(fixtures, fixture{halting, ht, EncodeTape(ht)})

	f.Add(uint8(0), uint64(0), uint64(0), byte(0))
	f.Add(uint8(4), uint64(IndexStride), uint64(100), byte(1))
	f.Add(uint8(4), uint64(2*IndexStride+136), uint64(9999), byte(0x80))
	f.Add(uint8(5), uint64(50), uint64(3), byte(0xff))
	f.Fuzz(func(t *testing.T, which uint8, at, mutOff uint64, mutXor byte) {
		fx := fixtures[int(which)%len(fixtures)]
		dec, err := DecodeTape(fx.enc, fx.prog)
		if err != nil {
			t.Fatalf("decoding pristine tape: %v", err)
		}
		if err := tapeStructEqual(fx.tape, dec); err != nil {
			t.Fatalf("round trip not identical: %v", err)
		}
		// Seek-vs-serial equivalence at a fuzzed offset, bounded just past
		// the recorded end so the live-fallback edge is reachable but cheap.
		at %= fx.tape.Len() + 64
		seekAndCompare(t, dec, at, 64)

		if mutXor != 0 && len(fx.enc) > tapeCodecHeaderLen {
			mut := append([]byte(nil), fx.enc...)
			off := tapeCodecHeaderLen + int(mutOff%uint64(len(mut)-tapeCodecHeaderLen))
			mut[off] ^= mutXor
			if dec2, err := DecodeTape(mut, fx.prog); err == nil {
				// The codec may only accept a mutation if it decodes to the
				// very same tape — anything else is a wrong artifact.
				if serr := tapeStructEqual(fx.tape, dec2); serr != nil {
					t.Fatalf("corruption at offset %d (xor %#x) decoded to a different tape: %v", off, mutXor, serr)
				}
				t.Fatalf("corruption at offset %d (xor %#x) not detected", off, mutXor)
			}
		}
	})
}

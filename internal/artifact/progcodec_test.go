package artifact

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/program"
)

// TestProgramCodecRoundTrip encodes and decodes every suite benchmark's built
// image and requires the decoded program to be structurally identical and to
// emulate bit-identically to the original.
func TestProgramCodecRoundTrip(t *testing.T) {
	for _, name := range program.SuiteNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := program.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := program.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := EncodeProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeProgram(enc)
			if err != nil {
				t.Fatalf("DecodeProgram: %v", err)
			}
			switch {
			case dec.Name != p.Name, dec.Input != p.Input:
				t.Fatalf("identity differs: %s/%s != %s/%s", dec.Name, dec.Input, p.Name, p.Input)
			case dec.EntryPC != p.EntryPC:
				t.Fatalf("entry PC %#x != %#x", dec.EntryPC, p.EntryPC)
			case dec.DataSize != p.DataSize:
				t.Fatalf("data size %d != %d", dec.DataSize, p.DataSize)
			case !reflect.DeepEqual(dec.Spec, p.Spec):
				t.Fatalf("spec differs:\n got  %+v\n want %+v", dec.Spec, p.Spec)
			case !bytes.Equal(dec.Image, p.Image):
				t.Fatalf("code image differs (%d vs %d bytes)", len(dec.Image), len(p.Image))
			case !bytes.Equal(dec.Data, p.Data):
				t.Fatalf("data segment differs (%d vs %d bytes)", len(dec.Data), len(p.Data))
			case len(dec.Code) != len(p.Code):
				t.Fatalf("decoded instruction count %d != %d", len(dec.Code), len(p.Code))
			}
			// The decoded program must drive the emulator exactly like the
			// original — the functional definition of "same program".
			drainBoth(t, name, emu.New(p), emu.New(dec), 2_000)
		})
	}
}

// TestProgramCodecDetectsCorruption feeds structurally damaged encodings to
// DecodeProgram; every one must be rejected. (The program encoding carries
// no checksum, so payload bit flips that leave the frame intact are out of
// its reach; this table only covers the codec's own framing.)
func TestProgramCodecDetectsCorruption(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-magic", func(b []byte) []byte { return b[:2] }},
		{"truncated-header-len", func(b []byte) []byte { return b[:10] }},
		{"truncated-mid-header", func(b []byte) []byte { return b[:20] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad-version", func(b []byte) []byte { b[4] ^= 0xff; return b }},
		{"corrupt-header-json", func(b []byte) []byte { b[12] ^= 0xff; return b }},
		{"oversized-section-len", func(b []byte) []byte {
			for i := 8; i < 12; i++ {
				b[i] = 0xff
			}
			return b
		}},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0x00) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.corrupt(append([]byte(nil), enc...))
			if dec, err := DecodeProgram(mut); err == nil {
				t.Fatalf("corrupted encoding decoded without error (%s)", dec.Name)
			}
		})
	}
	if _, err := DecodeProgram(enc); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}
}

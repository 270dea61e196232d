package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// The program encoding (version 1): a JSON header carrying the
// metadata and generator spec, then the raw encoded code image and the
// initialised data segment. The decoded instruction slice is not stored —
// it is reconstructed by the same isa.DecodeImage the generator validates
// against, so the image byte string is the single source of truth and a
// decoded program is structurally identical to a freshly built one.
//
// Layout, all little-endian:
//
//	magic "PFEP" | u32 version | u32 headerLen | header JSON
//	u32 imageLen | image bytes | u32 dataLen | data bytes
const (
	progMagic   = "PFEP"
	progVersion = 1
)

type progHeader struct {
	Name     string       `json:"name"`
	Input    string       `json:"input"`
	EntryPC  uint64       `json:"entry_pc"`
	DataSize int          `json:"data_size"`
	Spec     program.Spec `json:"spec"`
}

// EncodeProgram serializes a built program image into a self-contained
// byte string. Nothing in the simulator calls it: programs are shared
// between cells in memory only.
func EncodeProgram(p *program.Program) ([]byte, error) {
	hdr, err := json.Marshal(progHeader{
		Name: p.Name, Input: p.Input, EntryPC: p.EntryPC, DataSize: p.DataSize, Spec: p.Spec,
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: encoding program header: %w", err)
	}
	var out bytes.Buffer
	out.WriteString(progMagic)
	le32(&out, progVersion)
	le32(&out, uint32(len(hdr)))
	out.Write(hdr)
	le32(&out, uint32(len(p.Image)))
	out.Write(p.Image)
	le32(&out, uint32(len(p.Data)))
	out.Write(p.Data)
	return out.Bytes(), nil
}

// DecodeProgram reconstructs a program image from its stored encoding,
// re-decoding the instruction stream from the image bytes and re-running the
// generator's structural validation, so a damaged encoding that still frames
// correctly cannot smuggle an invalid program into a simulation.
func DecodeProgram(data []byte) (*program.Program, error) {
	if len(data) < 12 || string(data[:4]) != progMagic {
		return nil, fmt.Errorf("artifact: bad program frame")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != progVersion {
		return nil, fmt.Errorf("artifact: program format version %d, want %d", v, progVersion)
	}
	off := 8
	next := func() ([]byte, error) {
		if off+4 > len(data) {
			return nil, fmt.Errorf("artifact: program frame truncated")
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || off+n > len(data) {
			return nil, fmt.Errorf("artifact: program frame truncated")
		}
		b := data[off : off+n]
		off += n
		return b, nil
	}
	hdrBytes, err := next()
	if err != nil {
		return nil, err
	}
	var hdr progHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("artifact: decoding program header: %w", err)
	}
	image, err := next()
	if err != nil {
		return nil, err
	}
	dseg, err := next()
	if err != nil {
		return nil, err
	}
	if off != len(data) {
		return nil, fmt.Errorf("artifact: program frame has %d trailing bytes", len(data)-off)
	}
	p := &program.Program{
		Name:     hdr.Name,
		Input:    hdr.Input,
		EntryPC:  hdr.EntryPC,
		DataSize: hdr.DataSize,
		Spec:     hdr.Spec,
		// Copy out of the caller's buffer: programs live for the whole
		// sweep, and the caller may reuse its buffer.
		Image: append([]byte(nil), image...),
		Data:  append([]byte(nil), dseg...),
	}
	p.Code = isa.DecodeImage(p.Image)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: stored program failed validation: %w", err)
	}
	return p, nil
}

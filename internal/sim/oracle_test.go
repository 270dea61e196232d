package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/program"
)

var errOracleBroken = errors.New("oracle broken")

// failingOracle serves the live stream for its first limit instructions and
// then fails.
type failingOracle struct {
	m     *emu.Machine
	limit uint64
}

func (o *failingOracle) ReadBlock(dyn []emu.Dyn, ea []uint64) (int, error) {
	rest := o.limit - o.m.ICount()
	if uint64(len(dyn)) <= rest {
		return o.m.ReadBlock(dyn, ea)
	}
	n, err := o.m.ReadBlock(dyn[:rest], ea)
	if err == nil {
		err = errOracleBroken
	}
	return n, err
}

func (o *failingOracle) Halted() bool { return o.m.Halted() }

// TestOracleErrorEndsRun: an oracle that fails part-way through the
// measured budget must end the run with its error, wrapped with the
// benchmark and the sequence number it failed at, and no Result — not a
// short Result that reads as if the program had ended.
func TestOracleErrorEndsRun(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 20_000
	for _, fe := range []core.Config{
		feConfig("W16", core.FetchSequential, core.RenameSequential),
		feConfig("PR-2x8w", core.FetchParallel, core.RenameParallel),
	} {
		cfg := testConfig(fe)
		cfg.WarmupInsts = 0
		cfg.MeasureInsts = 50_000
		cfg.Oracle = &failingOracle{m: emu.New(p), limit: limit}
		res, err := Run(p, cfg)
		if !errors.Is(err, errOracleBroken) {
			t.Fatalf("%s: Run error = %v, want the oracle's error", fe.Name, err)
		}
		if res != nil {
			t.Fatalf("%s: Run returned a Result (%d committed) with the oracle error", fe.Name, res.Committed)
		}
		for _, want := range []string{p.Name, fmt.Sprintf("seq %d", limit)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", fe.Name, err, want)
			}
		}
	}
}

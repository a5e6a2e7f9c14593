// Package flowcmd is the shared front door to the SOCET flow: one place
// that resolves "which chip, prepared how" for every surface — the
// command-line tools (cmd/socet, cmd/compare, cmd/tradeoff, cmd/socgen)
// and the socetd daemon's job specs, which embed a ChipSpec as their
// wire format. Keeping the resolution here means a chip submitted over
// HTTP and the same chip named on a command line run through literally
// the same code path, so their results are byte-identical by
// construction.
//
// A ChipSpec names a chip one of three ways:
//   - System: one of the paper's example systems (1 or 2);
//   - Gen: a seeded random SoC (internal/socgen generator params);
//   - Script: a line-based chip script (see chipscript.go) whose core
//     bodies use the rtl core-script codec FuzzValidate fuzzes.
package flowcmd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/systems"
)

// GenSpec is the wire form of socgen.Params: the knobs of a seeded
// random SoC that are part of a job's identity.
type GenSpec struct {
	Seed     uint64 `json:"seed"`
	Cores    int    `json:"cores,omitempty"`
	Topology string `json:"topology,omitempty"`
}

// Params resolves the spec into generator parameters.
func (g GenSpec) Params() (socgen.Params, error) {
	topo, err := socgen.ParseTopology(topologyOrAuto(g.Topology))
	if err != nil {
		return socgen.Params{}, err
	}
	return socgen.Params{Seed: g.Seed, Cores: g.Cores, Topology: topo}, nil
}

func topologyOrAuto(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

// ChipSpec selects the chip a flow runs on. Exactly one of System, Gen
// and Script must be set.
type ChipSpec struct {
	System int      `json:"system,omitempty"`
	Gen    *GenSpec `json:"gen,omitempty"`
	Script string   `json:"script,omitempty"`
}

// Validate checks the spec names exactly one chip, without building it.
func (s ChipSpec) Validate() error {
	set := 0
	if s.System != 0 {
		if s.System != 1 && s.System != 2 {
			return fmt.Errorf("flowcmd: system must be 1 or 2, got %d", s.System)
		}
		set++
	}
	if s.Gen != nil {
		if _, err := s.Gen.Params(); err != nil {
			return err
		}
		set++
	}
	if s.Script != "" {
		set++
	}
	if set != 1 {
		return fmt.Errorf("flowcmd: chip spec must set exactly one of system, gen, script (got %d)", set)
	}
	return nil
}

// Build resolves the spec into a chip plus the flow options it should
// be prepared with (vector overrides for cores that cannot run ATPG).
func (s ChipSpec) Build() (*soc.Chip, *core.Options, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	switch {
	case s.System != 0:
		ch, err := System(s.System)
		return ch, nil, err
	case s.Gen != nil:
		p, err := s.Gen.Params()
		if err != nil {
			return nil, nil, err
		}
		ch, err := socgen.Generate(p)
		if err != nil {
			return nil, nil, err
		}
		return ch, GenVectorOverride(ch), nil
	default:
		return ParseChipScript(s.Script)
	}
}

// Key is the spec's canonical identity string — the flow-cache key the
// daemon shares prepared flows and evaluation caches under. Scripts are
// collapsed to their SHA-256 so keys stay short; a collision-resistant
// hash keeps two different scripts from sharing one prepared flow.
func (s ChipSpec) Key() string {
	switch {
	case s.System != 0:
		return fmt.Sprintf("system:%d", s.System)
	case s.Gen != nil:
		return fmt.Sprintf("gen:seed=%d,cores=%d,topology=%s", s.Gen.Seed, s.Gen.Cores, topologyOrAuto(s.Gen.Topology))
	default:
		sum := sha256.Sum256([]byte(s.Script))
		return "script:" + hex.EncodeToString(sum[:])
	}
}

// System returns one of the paper's example systems (1 or 2) — the
// shared replacement for every CLI's private pick switch.
func System(n int) (*soc.Chip, error) {
	switch n {
	case 1:
		return systems.System1(), nil
	case 2:
		return systems.System2(), nil
	}
	return nil, fmt.Errorf("flowcmd: -system must be 1 or 2, got %d", n)
}

// Systems returns the selected example systems; 0 means both.
func Systems(n int) ([]*soc.Chip, error) {
	if n == 0 {
		return []*soc.Chip{systems.System1(), systems.System2()}, nil
	}
	ch, err := System(n)
	if err != nil {
		return nil, fmt.Errorf("flowcmd: -system must be 0, 1 or 2, got %d", n)
	}
	return []*soc.Chip{ch}, nil
}

// GenVectorOverride derives the fixed per-core vector counts generated
// chips are prepared with: socgen cores carry no gate-level netlists, so
// their test-set sizes come from this seed-independent positional rule
// (the same one cmd/socgen -flow and cmd/tradeoff -gen always used)
// rather than from ATPG.
func GenVectorOverride(ch *soc.Chip) *core.Options {
	vecs := map[string]int{}
	for i, c := range ch.TestableCores() {
		vecs[c.Name] = 10 + i%23
	}
	return &core.Options{VectorOverride: vecs}
}

// AddTimeout registers the shared -timeout flag on fs.
func AddTimeout(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "wall-clock bound on the flow (0 = none), enforced through context deadlines")
}

// Context returns a context honoring the -timeout flag value: the
// background context when d is zero, a deadline context otherwise.
func Context(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), d)
}

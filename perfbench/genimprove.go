package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/flowcmd"
	"repro/internal/proptest"
	"repro/internal/soc"
	"repro/internal/socgen"
)

// The walk on the default chip (socgen seed 1998, 256 cores, RandomDAG):
// how many moves it accepts and where it ends.
const (
	genDefaultSeed  = 1998
	genDefaultSteps = 60
	genDefaultTAT   = 32415
)

// genImprove prepares a generated chip (vector override, no ATPG) and
// runs the unbudgeted TAT walk on it: prepare plus explore at scale.
type genImprove struct {
	seed  uint64
	cores int
}

func (g genImprove) setup() (iteration, error) {
	ch, err := socgen.Generate(socgen.Params{Seed: g.seed, Cores: g.cores, Topology: socgen.RandomDAG})
	if err != nil {
		return nil, err
	}
	return &genRun{w: g, ch: ch}, nil
}

func (genImprove) layers() []string {
	return []string{"synth.s", "hscan.s", "trans.s", "explore.improve_s"}
}

func (genImprove) workerCounts() map[string]int { return map[string]int{"flow": 1} }

type genRun struct {
	w    genImprove
	ch   *soc.Chip
	f    *core.Flow
	walk *explore.Result
}

func (r *genRun) ops() int { return 1 }
func (r *genRun) close()   {}

func (r *genRun) run(t *tracer) error {
	if err := t.call(func() (err error) {
		r.f, err = core.Prepare(r.ch, flowcmd.GenVectorOverride(r.ch))
		return err
	}); err != nil {
		return err
	}
	return t.call(func() (err error) {
		r.walk, err = explore.ImproveCtx(context.Background(), r.f, explore.MinimizeTAT, 1<<30, explore.Options{})
		return err
	}, "explore.improve_s")
}

// check requires the walk's final evaluation to equal a from-scratch full
// evaluation of its final selection, and every accepted move to lower the
// TAT. On the default chip the walk's length and end point are fixed too.
func (r *genRun) check(t *tracer) []string {
	if err := checkWalk(r.f, r.walk); err != nil {
		return []string{"gen256-improve: " + err.Error()}
	}
	if r.w.seed == genDefaultSeed && r.w.cores == 256 {
		if n, tat := len(r.walk.Steps), r.walk.Final.TAT; n != genDefaultSteps || tat != genDefaultTAT {
			return []string{fmt.Sprintf("gen256-improve: %d steps to TAT %d; want %d to %d",
				n, tat, genDefaultSteps, genDefaultTAT)}
		}
	}
	if err := probeFinal(t, r.f, r.walk.Selection); err != nil {
		return []string{"gen256-improve: probe: " + err.Error()}
	}
	return nil
}

func checkWalk(f *core.Flow, walk *explore.Result) error {
	fresh, err := f.EvaluateSelection(walk.Selection)
	if err != nil {
		return fmt.Errorf("re-evaluating the final selection: %w", err)
	}
	if err := proptest.EqualEvaluations(walk.Final, fresh); err != nil {
		return fmt.Errorf("final evaluation differs from a full re-evaluation: %w", err)
	}
	prev := -1
	for i, s := range walk.Steps {
		if prev >= 0 && s.TAT >= prev {
			return fmt.Errorf("step %d does not lower the TAT (%d -> %d)", i+1, prev, s.TAT)
		}
		prev = s.TAT
	}
	if prev >= 0 && prev != walk.Final.TAT {
		return fmt.Errorf("last step reports TAT %d, final evaluation %d", prev, walk.Final.TAT)
	}
	return nil
}

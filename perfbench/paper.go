package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fsim"
	"repro/internal/soc"
	"repro/internal/systems"
)

// System 1's bottom line after the TAT walk (cmd/socet -system 1
// -objective tat; Table 1 of the paper).
const (
	paperTAT      = 3950
	paperDFTCells = 115
)

// paperS1 is `socet -system 1 -objective tat` through the public API:
// prepare with real ATPG, the unbudgeted TAT walk, the final evaluation
// and the candidate listing. System 1 has no seed; its inputs are fixed.
type paperS1 struct{}

func (paperS1) setup() (iteration, error) { return &paperRun{ch: systems.System1()}, nil }

func (paperS1) layers() []string {
	return []string{"synth.s", "hscan.s", "trans.s", "atpg.s", "explore.improve_s", "core.flow_evaluate_s"}
}

func (paperS1) workerCounts() map[string]int { return map[string]int{"flow": 1} }

type paperRun struct {
	ch    *soc.Chip
	f     *core.Flow
	walk  *explore.Result
	final *core.Evaluation
}

func (p *paperRun) ops() int { return 1 }
func (p *paperRun) close()   {}

func (p *paperRun) run(t *tracer) error {
	ctx := context.Background()
	if err := t.call(func() (err error) {
		p.f, err = core.Prepare(p.ch, nil)
		return err
	}); err != nil {
		return err
	}
	if err := t.call(func() (err error) {
		p.walk, err = explore.ImproveCtx(ctx, p.f, explore.MinimizeTAT, 1<<30, explore.Options{})
		return err
	}, "explore.improve_s"); err != nil {
		return err
	}
	if err := t.call(func() (err error) {
		p.final, err = p.f.EvaluateCtx(ctx)
		return err
	}, "core.flow_evaluate_s"); err != nil {
		return err
	}
	explore.Candidates(p.f, p.final, explore.Cost{W1: 1})
	return nil
}

// check gates the bottom line against the paper's numbers and recounts
// every core's ATPG coverage with an independent fault simulation.
func (p *paperRun) check(t *tracer) []string {
	var fails []string
	if p.final.TAT != paperTAT || p.final.ChipDFTCells() != paperDFTCells {
		fails = append(fails, fmt.Sprintf("paper-s1: TAT %d, chip DFT %d cells; want %d, %d",
			p.final.TAT, p.final.ChipDFTCells(), paperTAT, paperDFTCells))
	}
	if err := t.timed("fsim.recount_s", func() error { return recountCoverage(p.f) }); err != nil {
		fails = append(fails, "paper-s1: "+err.Error())
	}
	if err := probeFinal(t, p.f, p.walk.Selection); err != nil {
		fails = append(fails, "paper-s1: probe: "+err.Error())
	}
	return fails
}

// recountCoverage re-fault-simulates each core's ATPG patterns against
// the full fault list. The recount must find every fault ATPG reported
// detected, and may find more only among the faults PODEM aborted on:
// ATPG's fault dropping never re-simulates an aborted fault against the
// patterns generated after it, so a later pattern can detect it unseen.
func recountCoverage(f *core.Flow) error {
	for _, c := range f.Chip.TestableCores() {
		art := f.Cores[c.Name]
		if art.ATPG == nil {
			return fmt.Errorf("%s: no ATPG result", c.Name)
		}
		n := art.Synth.Netlist
		r, err := fsim.Combinational(n, art.ATPG.Patterns, n.Faults())
		if err != nil {
			return fmt.Errorf("%s: fault simulation: %w", c.Name, err)
		}
		st := art.ATPG.Stats
		if r.Total != st.Faults || r.Detected < st.Detected || r.Detected > st.Detected+st.Aborted {
			return fmt.Errorf("%s: fault simulation detects %d of %d faults; ATPG reported %d of %d with %d aborted",
				c.Name, r.Detected, r.Total, st.Detected, st.Faults, st.Aborted)
		}
	}
	return nil
}

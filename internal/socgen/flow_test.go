package socgen_test

// Whole-flow properties on random-DAG chips: every chip validates, the
// chip-level flow and the explorer run on it, and the interconnect plan
// accounts for every net between logic cores.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/socgen"
)

var dag = socgen.Params{Topology: socgen.RandomDAG}

func TestRandomDAGChipsValidate(t *testing.T) {
	for _, ch := range socgen.Many(12, 1000, dag) {
		if err := ch.Validate(); err != nil {
			t.Errorf("%s: %v", ch.Name, err)
		}
		if len(ch.PIs) == 0 || len(ch.POs) == 0 {
			t.Errorf("%s: missing pins (%d PIs, %d POs)", ch.Name, len(ch.PIs), len(ch.POs))
		}
		// Single driver per core input.
		driven := map[string]int{}
		for _, n := range ch.Nets {
			if n.ToCore != "" {
				driven[n.ToCore+"."+n.ToPort]++
			}
		}
		for k, v := range driven {
			if v != 1 {
				t.Errorf("%s: input %s driven %d times", ch.Name, k, v)
			}
		}
	}
}

// Property: the full chip-level flow — CCG, reservation-aware scheduling,
// test-mux fallback, schedule replay validation — succeeds on every random
// topology, and every version selection keeps the schedule consistent.
func TestFlowOnRandomDAGChips(t *testing.T) {
	for _, ch := range socgen.Many(12, 2000, dag) {
		vec := map[string]int{}
		for _, c := range ch.Cores {
			vec[c.Name] = 20
		}
		f, err := core.Prepare(ch, &core.Options{VectorOverride: vec})
		if err != nil {
			t.Errorf("%s: prepare: %v", ch.Name, err)
			continue
		}
		e, err := f.Evaluate() // Evaluate runs sched.Validate internally
		if err != nil {
			t.Errorf("%s: evaluate: %v", ch.Name, err)
			continue
		}
		if e.TAT <= 0 {
			t.Errorf("%s: TAT %d", ch.Name, e.TAT)
		}
		// Flip every core to its fastest version and re-evaluate: TAT must
		// not get worse.
		sel := map[string]int{}
		for _, c := range ch.TestableCores() {
			sel[c.Name] = len(c.Versions) - 1
		}
		f.SelectVersions(sel)
		e2, err := f.Evaluate()
		if err != nil {
			t.Errorf("%s: evaluate fast: %v", ch.Name, err)
			continue
		}
		if e2.TAT > e.TAT {
			t.Errorf("%s: fastest versions slowed the chip: %d -> %d", ch.Name, e.TAT, e2.TAT)
		}
	}
}

// Property: design-space enumeration is Pareto-consistent and iterative
// improvement respects its budget on random chips.
func TestExploreOnRandomDAGChips(t *testing.T) {
	for _, ch := range socgen.Many(6, 3000, dag) {
		vec := map[string]int{}
		for _, c := range ch.Cores {
			vec[c.Name] = 10
		}
		f, err := core.Prepare(ch, &core.Options{VectorOverride: vec})
		if err != nil {
			t.Errorf("%s: %v", ch.Name, err)
			continue
		}
		points, err := explore.EnumerateCtx(context.Background(), f, explore.Options{})
		if err != nil {
			t.Errorf("%s: enumerate: %v", ch.Name, err)
			continue
		}
		front := explore.Pareto(points)
		for i := 1; i < len(front); i++ {
			if front[i].TAT >= front[i-1].TAT || front[i].ChipCells < front[i-1].ChipCells {
				t.Errorf("%s: Pareto front not monotone at %d", ch.Name, i)
			}
		}
		// Reset and improve under a generous budget.
		sel := map[string]int{}
		for _, c := range ch.TestableCores() {
			sel[c.Name] = 0
		}
		f.SelectVersions(sel)
		f.ForcedMuxes = nil
		e0, err := f.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		res, err := explore.ImproveCtx(context.Background(), f, explore.MinimizeTAT, e0.ChipDFTCells()+100, explore.Options{})
		if err != nil {
			t.Errorf("%s: improve: %v", ch.Name, err)
			continue
		}
		if res.Final.ChipDFTCells() > e0.ChipDFTCells()+100 {
			t.Errorf("%s: budget exceeded: %d > %d", ch.Name, res.Final.ChipDFTCells(), e0.ChipDFTCells()+100)
		}
		if res.Final.TAT > e0.TAT {
			t.Errorf("%s: improvement raised TAT %d -> %d", ch.Name, e0.TAT, res.Final.TAT)
		}
	}
}

// Property: the interconnect plan of an evaluation's graph covers every
// net between logic cores or lists it as untestable, never both. Nets
// touching a memory core are outside the plan: memories are BIST-tested
// and absent from the CCG.
func TestInterconnectOnRandomDAGChips(t *testing.T) {
	for _, ch := range socgen.Many(8, 4000, dag) {
		vec := map[string]int{}
		for _, c := range ch.Cores {
			vec[c.Name] = 5
		}
		f, err := core.Prepare(ch, &core.Options{VectorOverride: vec})
		if err != nil {
			t.Fatal(err)
		}
		e, err := f.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		ir, err := sched.ScheduleInterconnect(e.Graph.Chip, e.Graph)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, nt := range ir.Nets {
			seen[nt.Net.String()] = true
		}
		for _, n := range ir.Untestable {
			if seen[n.String()] {
				t.Errorf("%s: net %v both scheduled and untestable", ch.Name, n)
			}
			seen[n.String()] = true
		}
		for _, n := range ch.Nets {
			if n.FromCore == "" || n.ToCore == "" {
				continue
			}
			from, _ := ch.CoreByName(n.FromCore)
			to, _ := ch.CoreByName(n.ToCore)
			if from.Memory || to.Memory {
				continue
			}
			if !seen[n.String()] {
				t.Errorf("%s: net %v not accounted for", ch.Name, n)
			}
		}
	}
}

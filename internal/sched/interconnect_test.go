package sched_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/resil"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/systems"
)

// perNetInterconnect is the reference interconnect planner: for every net
// it runs one reservation-free search from the PIs to the driver and one
// from the sink to every PO, exactly as the paths are defined.
func perNetInterconnect(ch *soc.Chip, g *ccg.Graph) (*sched.InterconnectResult, error) {
	res := &sched.InterconnectResult{}
	pis, pos := g.PINodes(), g.PONodes()
	fi := ccg.NewFinder()
	for _, n := range ch.Nets {
		if n.FromCore == "" || n.ToCore == "" {
			continue
		}
		fromC, ok1 := ch.CoreByName(n.FromCore)
		toC, ok2 := ch.CoreByName(n.ToCore)
		if !ok1 || !ok2 || fromC.Memory || toC.Memory {
			continue
		}
		width := 1
		if p, ok := fromC.RTL.PortByName(n.FromPort); ok {
			width = p.Width
		}
		src, ok := g.NodeIndex(n.FromCore + "." + n.FromPort)
		if !ok {
			return nil, fmt.Errorf("missing node %s.%s", n.FromCore, n.FromPort)
		}
		head := fi.ShortestPath(g, pis, src, ccg.Reservations{})
		sink, ok := g.NodeIndex(n.ToCore + "." + n.ToPort)
		if !ok {
			return nil, fmt.Errorf("missing node %s.%s", n.ToCore, n.ToPort)
		}
		var tail *ccg.PathResult
		for _, po := range pos {
			if p := fi.ShortestPath(g, []int{sink}, po, ccg.Reservations{}); p != nil && (tail == nil || p.Arrival < tail.Arrival) {
				tail = p
			}
		}
		if head == nil || tail == nil {
			res.Untestable = append(res.Untestable, n)
			continue
		}
		nt := sched.NetTest{
			Net:      n,
			Width:    width,
			Patterns: sched.WirePatterns(width),
			Period:   head.Arrival + tail.Arrival,
		}
		if nt.Period < 1 {
			nt.Period = 1
		}
		nt.TAT = nt.Patterns * nt.Period
		res.Nets = append(res.Nets, nt)
		res.TotalTAT += nt.TAT
	}
	return res, nil
}

func sameInterconnect(got, want *sched.InterconnectResult) error {
	if got.TotalTAT != want.TotalTAT {
		return fmt.Errorf("TotalTAT %d, reference %d", got.TotalTAT, want.TotalTAT)
	}
	if len(got.Nets) != len(want.Nets) {
		return fmt.Errorf("%d tested nets, reference %d", len(got.Nets), len(want.Nets))
	}
	for i := range got.Nets {
		if got.Nets[i] != want.Nets[i] {
			return fmt.Errorf("net %d: %+v, reference %+v", i, got.Nets[i], want.Nets[i])
		}
	}
	if len(got.Untestable) != len(want.Untestable) {
		return fmt.Errorf("%d untestable nets, reference %d", len(got.Untestable), len(want.Untestable))
	}
	for i := range got.Untestable {
		if got.Untestable[i] != want.Untestable[i] {
			return fmt.Errorf("untestable net %d: %v, reference %v", i, got.Untestable[i], want.Untestable[i])
		}
	}
	return nil
}

// TestInterconnectMatchesPerNetSearch requires the two-sweep plan of an
// evaluation's graph to equal the per-net reference on that graph, after
// scheduling added its test muxes: Systems 1 and 2, every socgen topology
// with memory cores, each at its cheapest and fastest versions, and
// System 1 with a cut net evaluated degraded, where nets become
// untestable.
func TestInterconnectMatchesPerNetSearch(t *testing.T) {
	chips := []*soc.Chip{systems.System1(), systems.System2()}
	for _, topo := range []socgen.Topology{socgen.Chain, socgen.Mesh, socgen.RandomDAG, socgen.Hub} {
		ch, err := socgen.Generate(socgen.Params{Seed: 5, Cores: 12, Topology: topo, Memories: 2})
		if err != nil {
			t.Fatal(err)
		}
		chips = append(chips, ch)
	}
	check := func(name string, e *core.Evaluation) *sched.InterconnectResult {
		t.Helper()
		got, err := sched.ScheduleInterconnect(e.Graph.Chip, e.Graph)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := perNetInterconnect(e.Graph.Chip, e.Graph)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if err := sameInterconnect(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return got
	}
	for _, ch := range chips {
		f, err := core.Prepare(ch, flowcmd.GenVectorOverride(ch))
		if err != nil {
			t.Fatal(err)
		}
		for _, top := range []bool{false, true} {
			sel := map[string]int{}
			for _, c := range ch.TestableCores() {
				if top {
					sel[c.Name] = len(c.Versions) - 1
				}
			}
			e, err := f.EvaluateSelection(sel)
			if err != nil {
				t.Fatalf("%s: %v", ch.Name, err)
			}
			check(fmt.Sprintf("%s top=%v", ch.Name, top), e)
		}
	}

	s1 := systems.System1()
	f, err := core.Prepare(s1, flowcmd.GenVectorOverride(s1))
	if err != nil {
		t.Fatal(err)
	}
	cut := resil.CutEdge{FromPort: "NUM", ToCore: "PREPROCESSOR", ToPort: "NUM"}
	fch, err := resil.Inject(f.Chip, cut)
	if err != nil {
		t.Fatal(err)
	}
	de, err := f.Fork(fch).EvaluateDegradedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ir := check(cut.String(), de.Evaluation); len(ir.Untestable) == 0 {
		t.Fatalf("%v left every net testable; the untestable case is not exercised", cut)
	}
}

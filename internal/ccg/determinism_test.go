package ccg_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/systems"
)

var (
	detOnce  sync.Once
	detChips []*soc.Chip
	detErr   error
)

// detSystems prepares both example systems once (ATPG skipped — the
// determinism property is about graph construction and path finding).
func detSystems(t *testing.T) []*soc.Chip {
	t.Helper()
	detOnce.Do(func() {
		for _, build := range []func() *soc.Chip{systems.System1, systems.System2} {
			ch := build()
			vecs := map[string]int{}
			for i, c := range ch.TestableCores() {
				vecs[c.Name] = 20 + i
			}
			if _, err := core.Prepare(ch, &core.Options{VectorOverride: vecs}); err != nil {
				detErr = err
				return
			}
			detChips = append(detChips, ch)
		}
	})
	if detErr != nil {
		t.Fatal(detErr)
	}
	return detChips
}

// graphSignature renders a CCG and its schedule to one canonical string:
// every node, every edge with latency and reservation keys, and every
// scheduled path step by step.
func graphSignature(ch *soc.Chip, g *ccg.Graph) (string, error) {
	var b []byte
	app := func(format string, args ...interface{}) { b = append(b, fmt.Sprintf(format, args...)...) }
	for i, n := range g.Nodes {
		app("node %d %s k%d\n", i, n.Name(), int(n.Kind))
	}
	for _, e := range g.Edges {
		app("edge %d %s->%s lat=%d k%d res=%v\n",
			e.ID, g.Nodes[e.From].Name(), g.Nodes[e.To].Name(), e.Latency, int(e.Kind), e.Res)
	}
	s, err := sched.Schedule(ch, g)
	if err != nil {
		return "", err
	}
	for _, cs := range s.Cores {
		app("core %s J=%d O=%d tail=%d TAT=%d\n", cs.Core, cs.Period, cs.ObserveLat, cs.Tail, cs.TAT)
		for _, group := range [][]sched.PortSchedule{cs.Inputs, cs.Outputs} {
			for _, ps := range group {
				app("  %s arr=%d mux=%v:", ps.Port, ps.Arrival, ps.AddedMux)
				for _, st := range ps.Path.Steps {
					app(" e%d@%d", st.Edge.ID, st.Start)
				}
				app("\n")
			}
		}
	}
	app("total %d\n", s.TotalTAT())
	return string(b), nil
}

// TestPathFindingDeterministic rebuilds the CCG and the full reservation
// schedule of both example systems 100 times and requires bit-identical
// results every time: map iteration or slice-order nondeterminism in the
// graph build or the Dijkstra tie-breaking would show up here.
func TestPathFindingDeterministic(t *testing.T) {
	for _, ch := range detSystems(t) {
		t.Run(ch.Name, func(t *testing.T) {
			sel := ch.Resolve(nil)
			g0, err := ccg.BuildSelection(ch, sel)
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphSignature(ch, g0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 100; i++ {
				g, err := ccg.BuildSelection(ch, sel)
				if err != nil {
					t.Fatalf("rebuild %d: %v", i, err)
				}
				got, err := graphSignature(ch, g)
				if err != nil {
					t.Fatalf("rebuild %d: %v", i, err)
				}
				if got != want {
					t.Fatalf("rebuild %d produced a different graph/schedule signature", i)
				}
			}
		})
	}
}

// TestTruncateEdgesRollback checks the snapshot/rollback pair used by the
// scheduler for speculative test-mux insertion.
func TestTruncateEdgesRollback(t *testing.T) {
	ch := detSystems(t)[0]
	g, err := ccg.BuildSelection(ch, ch.Resolve(nil))
	if err != nil {
		t.Fatal(err)
	}
	n := g.EdgeCount()
	g.TruncateEdges(-1)
	g.TruncateEdges(n)
	if g.EdgeCount() != n {
		t.Fatalf("out-of-range truncation changed edge count to %d", g.EdgeCount())
	}
	g.TruncateEdges(n - 1)
	if g.EdgeCount() != n-1 {
		t.Fatalf("truncation to %d left %d edges", n-1, g.EdgeCount())
	}
}

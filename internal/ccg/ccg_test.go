package ccg_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/systems"
)

func system1Graph(t *testing.T) (*ccg.Graph, *core.Flow) {
	t.Helper()
	f, err := core.Prepare(systems.System1(), &core.Options{
		VectorOverride: map[string]int{"CPU": 100, "PREPROCESSOR": 100, "DISPLAY": 105},
	})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	g, err := ccg.Build(f.Chip)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, f
}

// TestBuildSelectionRejectsIncompleteSelection requires BuildSelection
// to refuse a selection that leaves out a testable core, instead of
// reading that core's Selected.
func TestBuildSelectionRejectsIncompleteSelection(t *testing.T) {
	_, f := system1Graph(t)
	sel := f.Chip.Resolve(nil)
	delete(sel, "CPU")
	if _, err := ccg.BuildSelection(f.Chip, sel); err == nil || !strings.Contains(err.Error(), "CPU") {
		t.Fatalf("selection without CPU: err = %v, want one naming CPU", err)
	}
	if _, err := ccg.BuildSelection(f.Chip, nil); err == nil {
		t.Fatal("nil selection accepted")
	}
}

func TestBuildFigure9Nodes(t *testing.T) {
	g, _ := system1Graph(t)
	// Figure 9's CCG: chip pins plus the ports of the three logic cores.
	for _, want := range []string{
		"NUM", "Video", "Reset",
		"PREPROCESSOR.NUM", "PREPROCESSOR.DB", "PREPROCESSOR.Address", "PREPROCESSOR.Eoc",
		"CPU.Data", "CPU.AddrLo", "CPU.AddrHi", "CPU.Interrupt",
		"DISPLAY.ALo", "DISPLAY.AHi", "DISPLAY.D", "DISPLAY.PORT1",
		"PO-PORT1",
	} {
		if _, ok := g.NodeIndex(want); !ok {
			t.Errorf("missing CCG node %s", want)
		}
	}
	// Memory cores are excluded.
	if _, ok := g.NodeIndex("RAM.Addr"); ok {
		t.Error("memory core leaked into the CCG")
	}
}

func TestWireAndTransEdges(t *testing.T) {
	g, _ := system1Graph(t)
	kinds := map[ccg.EdgeKind]int{}
	for _, e := range g.Edges {
		kinds[e.Kind]++
	}
	if kinds[ccg.Wire] == 0 {
		t.Error("no interconnect wires")
	}
	if kinds[ccg.Trans] == 0 {
		t.Error("no transparency edges")
	}
	// Every transparency edge costs at least one cycle and carries its
	// resource set.
	for _, e := range g.Edges {
		if e.Kind == ccg.Trans {
			if e.Latency < 1 {
				t.Errorf("trans edge %v has latency %d", e, e.Latency)
			}
			if len(e.Res) == 0 {
				t.Errorf("trans edge from %s has no resources", g.Nodes[e.From].Name())
			}
		}
	}
}

func TestShortestPathNUMToDisplayD(t *testing.T) {
	g, _ := system1Graph(t)
	target, ok := g.NodeIndex("DISPLAY.D")
	if !ok {
		t.Fatal("no DISPLAY.D node")
	}
	p := g.ShortestPath(g.PINodes(), target, ccg.Reservations{})
	if p == nil {
		t.Fatal("no path NUM -> DISPLAY.D")
	}
	// Section 3: through the PREPROCESSOR's NUM->DB transparency, five
	// cycles in Version 1.
	if p.Arrival != 5 {
		t.Errorf("arrival = %d, want 5 (PREPROCESSOR V1 NUM->DB)", p.Arrival)
	}
}

func TestReservationsForceWaiting(t *testing.T) {
	g, _ := system1Graph(t)
	target, _ := g.NodeIndex("DISPLAY.D")
	resv := ccg.Reservations{}
	p1 := g.ShortestPath(g.PINodes(), target, resv)
	if p1 == nil {
		t.Fatal("no path")
	}
	g.ReservePath(p1, resv)
	p2 := g.ShortestPath(g.PINodes(), target, resv)
	if p2 == nil {
		t.Fatal("no second path")
	}
	if p2.Arrival <= p1.Arrival {
		t.Errorf("second use of the shared NUM->DB edge should wait: %d then %d", p1.Arrival, p2.Arrival)
	}
}

func TestAddTestMuxCreatesPath(t *testing.T) {
	g, _ := system1Graph(t)
	// PREPROCESSOR.Address feeds only the RAM: unobservable until a test
	// mux connects it to a PO (Figure 9's system-level mux).
	src, _ := g.NodeIndex("PREPROCESSOR.Address")
	po := g.PONodes()[0]
	if p := g.ShortestPath([]int{src}, po, ccg.Reservations{}); p != nil {
		t.Fatalf("Address unexpectedly observable: %+v", p)
	}
	g.AddTestMux(src, po)
	if p := g.ShortestPath([]int{src}, po, ccg.Reservations{}); p == nil {
		t.Error("test mux did not create an observation path")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g, _ := system1Graph(t)
	// No path from a PO node anywhere.
	po := g.PONodes()[0]
	pi := g.PINodes()[0]
	if p := g.ShortestPath([]int{po}, pi, ccg.Reservations{}); p != nil {
		t.Error("found impossible path PO -> PI")
	}
}

// TestPinListsAreSharedAndCapped requires PINodes and PONodes to list
// exactly the chip pin nodes in index order, on a built graph and on a
// clone sharing its nodes, and to hand out slices whose capacity ends at
// their length: two callers appending to the shared list must each get a
// copy instead of writing into the same spare slot.
func TestPinListsAreSharedAndCapped(t *testing.T) {
	g, f := system1Graph(t)
	c := f.Chip.TestableCores()[0]
	clone := g.CloneWithVersion(g.EdgeCount(), c, c.VersionAt(c.Selected))
	if clone == nil {
		t.Fatal("CloneWithVersion refused the current version")
	}
	for _, pins := range []struct {
		kind ccg.NodeKind
		list func(*ccg.Graph) []int
	}{{ccg.ChipPI, (*ccg.Graph).PINodes}, {ccg.ChipPO, (*ccg.Graph).PONodes}} {
		kind, list := pins.kind, pins.list
		var want []int
		for i, n := range g.Nodes {
			if n.Kind == kind {
				want = append(want, i)
			}
		}
		for _, gr := range []*ccg.Graph{g, clone} {
			got := list(gr)
			if !slices.Equal(got, want) {
				t.Fatalf("kind %d: pin list %v, want %v", kind, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("kind %d: pin list has capacity %d past its length %d", kind, cap(got), len(got))
			}
			a := append(list(gr), -1)
			b := append(list(gr), -2)
			if a[len(a)-1] != -1 || b[len(b)-1] != -2 || !slices.Equal(list(gr), want) {
				t.Fatalf("kind %d: appending to the returned list changed shared state", kind)
			}
		}
	}
}

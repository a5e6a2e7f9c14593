package trans

import (
	"testing"

	"repro/internal/hscan"
	"repro/internal/rtl"
)

// miniCPU is a scaled-down Figure 3/7 CPU: Data feeds IR through an
// existing mux; IR O-splits toward MAR-page (fast branch to Address(11:8))
// and toward the accumulator chain (slow branch to Address(7:0)); the
// accumulator is a C-split node; and mux M3 offers a non-HSCAN shortcut
// Data -> MAR-offset that Version 2 exploits, exactly like multiplexer M
// in the paper.
func miniCPU(t *testing.T) *rtl.Core {
	t.Helper()
	c, err := rtl.NewCore("minicpu").
		In("Data", 8).
		CtlIn("en", 1).
		Out("A70", 8).
		Out("A118", 4).
		Reg("IR", 8).
		RegLd("SR", 4).
		Reg("ACC", 8).
		Reg("MAROFF", 8).
		Reg("MARPG", 4).
		Mux("M1", 8, 2).
		Mux("M2", 4, 2).
		Mux("M3", 8, 2).
		Unit(rtl.Unit{Name: "alu", Op: rtl.OpAdd, Width: 8}).
		Wire("Data", "M1.in0").
		Wire("alu.out", "M1.in1").
		Wire("M1.out", "IR.d").
		Wire("IR.q[3:0]", "MARPG.d").
		Wire("IR.q[7:4]", "SR.d").
		Wire("en", "SR.ld").
		Wire("SR.q", "ACC.d[3:0]").
		Wire("IR.q[3:0]", "M2.in0").
		Wire("alu.out[7:4]", "M2.in1").
		Wire("M2.out", "ACC.d[7:4]").
		Wire("ACC.q", "M3.in0").
		Wire("Data", "M3.in1").
		Wire("M3.out", "MAROFF.d").
		Wire("MARPG.q", "A118").
		Wire("MAROFF.q", "A70").
		Wire("ACC.q", "alu.in0").
		Wire("MAROFF.q", "alu.in1").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildRCG(t *testing.T, c *rtl.Core) *RCG {
	t.Helper()
	scan, err := hscan.Insert(c)
	if err != nil {
		t.Fatalf("hscan: %v", err)
	}
	g, err := Build(c, scan)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestRCGNodesAndEdges(t *testing.T) {
	c := miniCPU(t)
	g := buildRCG(t, c)
	for _, want := range []string{"Data", "A70", "A118", "IR", "SR", "ACC", "MAROFF", "MARPG"} {
		if _, ok := g.NodeIndex(want); !ok {
			t.Errorf("missing RCG node %s", want)
		}
	}
	// Edge Data->IR through M1@0 must exist and be HSCAN (scan chain head).
	data, _ := g.NodeIndex("Data")
	ir, _ := g.NodeIndex("IR")
	found := false
	for _, e := range g.Edges {
		if e.From == data && e.To == ir {
			found = true
			if !e.HSCAN {
				t.Error("Data->IR edge not flagged HSCAN")
			}
		}
	}
	if !found {
		t.Error("Data->IR edge missing")
	}
	// Units block paths: no edge from alu.
	if _, ok := g.NodeIndex("alu"); ok {
		t.Error("functional unit leaked into RCG")
	}
}

func TestJustificationLatencies(t *testing.T) {
	c := miniCPU(t)
	g := buildRCG(t, c)
	a70, _ := g.NodeIndex("A70")
	a118, _ := g.NodeIndex("A118")

	// All edges admitted: the M3 shortcut justifies A70 in one cycle.
	p, ok := g.SolveJust(a70, false)
	if !ok {
		t.Fatal("A70 unjustifiable with all edges")
	}
	if p.Latency != 1 {
		t.Errorf("A70 all-edge latency = %d, want 1 (Data->M3->MAROFF)", p.Latency)
	}
	// A118 is two cycles either way (Data->IR->MARPG).
	p, ok = g.SolveJust(a118, false)
	if !ok {
		t.Fatal("A118 unjustifiable")
	}
	if p.Latency != 2 {
		t.Errorf("A118 latency = %d, want 2", p.Latency)
	}
	ends := g.EndNames(p)
	if len(ends) != 1 || ends[0] != "Data" {
		t.Errorf("A118 justified from %v, want [Data]", ends)
	}
}

func TestHSCANOnlyJustificationSlower(t *testing.T) {
	c := miniCPU(t)
	g := buildRCG(t, c)
	a70, _ := g.NodeIndex("A70")
	strict, okS := g.SolveJust(a70, true)
	loose, okL := g.SolveJust(a70, false)
	if !okS || !okL {
		t.Fatalf("solve failed: strict=%v loose=%v", okS, okL)
	}
	if strict.Latency <= loose.Latency {
		t.Errorf("HSCAN-only latency %d should exceed all-edge latency %d", strict.Latency, loose.Latency)
	}
	// ACC's two nibbles both pass through SR holding different values, so
	// the branches serialize: (Data->SR->ACC) 2 + 2, then MAROFF.
	if strict.Latency != 5 {
		t.Errorf("HSCAN-only A70 latency = %d, want 5", strict.Latency)
	}
}

func TestPropagationReachesOutputs(t *testing.T) {
	c := miniCPU(t)
	g := buildRCG(t, c)
	data, _ := g.NodeIndex("Data")
	p, ok := g.SolveProp(data, false)
	if !ok {
		t.Fatal("Data unpropagatable")
	}
	if p.Latency != 1 {
		t.Errorf("prop latency = %d, want 1 (M3 shortcut)", p.Latency)
	}
}

func TestVersionLadder(t *testing.T) {
	c := miniCPU(t)
	g := buildRCG(t, c)
	vs, err := Versions(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < 2 {
		t.Fatalf("expected a ladder of >= 2 versions, got %d", len(vs))
	}
	// Monotone trade-off: max latency non-increasing, area non-decreasing.
	for i := 1; i < len(vs); i++ {
		if vs[i].MaxLatency() > vs[i-1].MaxLatency() {
			t.Errorf("version %d latency %d > version %d latency %d",
				i+1, vs[i].MaxLatency(), i, vs[i-1].MaxLatency())
		}
		ai, aj := vs[i].Area, vs[i-1].Area
		if ai.Cells() < aj.Cells() {
			t.Errorf("version %d area %d < version %d area %d",
				i+1, ai.Cells(), i, aj.Cells())
		}
	}
	// The ladder is a Pareto front: the first version is the cheapest
	// undominated configuration.
	v1 := vs[0]
	if got := v1.JustLatency("A118"); got != 2 {
		t.Errorf("V1 just(A118) = %d, want 2", got)
	}
	// The last version reaches single-cycle transparency everywhere.
	last := vs[len(vs)-1]
	if last.MaxLatency() != 1 {
		t.Errorf("final version max latency = %d, want 1", last.MaxLatency())
	}
	// Labels renumbered consecutively.
	for i, v := range vs {
		if v.Index != i+1 {
			t.Errorf("version %d has index %d", i+1, v.Index)
		}
	}
}

func TestSharedEdgeSerialization(t *testing.T) {
	// Both outputs justify through register R1 from D: their paths share
	// the D->R1 edge, so at the chip level they serialize (Section 3's
	// 6+2=8 effect).
	c, err := rtl.NewCore("serial").
		In("D", 8).
		Out("X", 8).Out("Y", 8).
		Reg("R1", 8).Reg("RX", 8).Reg("RY", 8).
		Wire("D", "R1.d").
		Wire("R1.q", "RX.d").
		Wire("R1.q", "RY.d").
		Wire("RX.q", "X").
		Wire("RY.q", "Y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := g.NodeIndex("X")
	y, _ := g.NodeIndex("Y")
	px, ok1 := g.SolveJust(x, false)
	py, ok2 := g.SolveJust(y, false)
	if !ok1 || !ok2 {
		t.Fatal("justification failed")
	}
	if px.Latency != 2 || py.Latency != 2 {
		t.Fatalf("individual latencies = %d,%d, want 2,2", px.Latency, py.Latency)
	}
	if !sharesEdge(px, py) {
		t.Error("the X and Y justification paths do not share the D->R1 edge")
	}
}

func TestCSplitSerializesOverlappingBranches(t *testing.T) {
	// RZ loads its nibbles through branches that both need register RA to
	// hold *different* values: under the paper's no-pipelining rule the
	// branches transfer sequentially (latencies add: 2+3=5).
	c, err := rtl.NewCore("unbal").
		In("D", 4).
		Out("Z", 8).
		Reg("RA", 4).Reg("RB", 4).Reg("RZ", 8).
		Wire("D", "RA.d").
		Wire("RA.q", "RB.d").
		Wire("RA.q", "RZ.d[3:0]").
		Wire("RB.q", "RZ.d[7:4]").
		Wire("RZ.q", "Z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := g.NodeIndex("Z")
	p, ok := g.SolveJust(z, false)
	if !ok {
		t.Fatal("Z unjustifiable")
	}
	if p.Latency != 5 {
		t.Errorf("latency = %d, want 5 (serialized 2+3 through shared RA)", p.Latency)
	}
	if len(p.Freezes) == 0 {
		t.Errorf("expected freeze logic for the early branch, got none")
	}
}

func TestCSplitReconvergenceRunsParallel(t *testing.T) {
	// The ACCUMULATOR/IR effect of Figure 4: both branches draw disjoint
	// slices of ONE load of RA, so they run in parallel; the shallow
	// branch freezes one cycle to balance (the Status-register freeze).
	c, err := rtl.NewCore("reconv").
		In("D", 8).
		Out("Z", 8).
		Reg("RA", 8).Reg("RB", 4).Reg("RZ", 8).
		Wire("D", "RA.d").
		Wire("RA.q[3:0]", "RZ.d[3:0]").
		Wire("RA.q[7:4]", "RB.d").
		Wire("RB.q", "RZ.d[7:4]").
		Wire("RZ.q", "Z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := g.NodeIndex("Z")
	p, ok := g.SolveJust(z, false)
	if !ok {
		t.Fatal("Z unjustifiable")
	}
	if p.Latency != 3 {
		t.Errorf("latency = %d, want 3 (parallel branches, single RA load)", p.Latency)
	}
	if p.Freezes["RA"] != 1 {
		t.Errorf("freezes = %v, want RA frozen 1 cycle", p.Freezes)
	}
}

func TestOSplitForwardBranching(t *testing.T) {
	c, err := rtl.NewCore("osplit").
		In("D", 8).
		Out("X", 4).Out("Y", 4).
		Reg("R1", 8).Reg("RX", 4).Reg("RB", 4).Reg("RY", 4).
		Wire("D", "R1.d").
		Wire("R1.q[3:0]", "RX.d").
		Wire("R1.q[7:4]", "RB.d").
		Wire("RB.q", "RY.d").
		Wire("RX.q", "X").
		Wire("RY.q", "Y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := g.NodeIndex("D")
	p, ok := g.SolveProp(d, false)
	if !ok {
		t.Fatal("D unpropagatable")
	}
	if p.Latency != 3 {
		t.Errorf("prop latency = %d, want 3 (slow branch via RB)", p.Latency)
	}
	ends := g.EndNames(p)
	if len(ends) != 2 {
		t.Errorf("value should spread to both outputs, got %v", ends)
	}
	if p.Freezes["RX"] != 1 {
		t.Errorf("freezes = %v, want RX frozen 1 cycle", p.Freezes)
	}
}

func TestCreatedMuxWhenNoPath(t *testing.T) {
	// An output fed only by a functional unit: justification must fall
	// back to a created transparency mux with one-cycle latency.
	c, err := rtl.NewCore("blocked").
		In("D", 8).
		Out("Z", 8).
		Reg("R1", 8).
		Unit(rtl.Unit{Name: "inc", Op: rtl.OpInc, Width: 8}).
		Wire("D", "R1.d").
		Wire("R1.q", "inc.in0").
		Wire("inc.out", "Z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := Versions(g)
	if err != nil {
		t.Fatal(err)
	}
	// V1 routes through the created R1->Z mux: D reaches R1 in one cycle
	// and the mux buffers one more.
	v1 := vs[0]
	if got := v1.JustLatency("Z"); got != 2 {
		t.Errorf("V1 created-mux justification latency = %d, want 2", got)
	}
	// The created mux must be priced: 8 Mux2 + control.
	a := v1.Area
	if a.Cells() < 8 {
		t.Errorf("version area = %d cells, want >= 8 for the created mux", a.Cells())
	}
	// The ladder ends with direct single-cycle transparency.
	last := vs[len(vs)-1]
	if got := last.JustLatency("Z"); got != 1 {
		t.Errorf("final version justification latency = %d, want 1", got)
	}
}

func TestPairsForCCG(t *testing.T) {
	c := miniCPU(t)
	g := buildRCG(t, c)
	vs, err := Versions(g)
	if err != nil {
		t.Fatal(err)
	}
	v := vs[len(vs)-1]
	jp := v.JustPairs()
	if len(jp) == 0 {
		t.Fatal("no justification pairs")
	}
	seen := map[string]bool{}
	for _, p := range jp {
		seen[p.Out] = true
		if p.Latency < 1 {
			t.Errorf("pair %s->%s latency %d < 1", p.In, p.Out, p.Latency)
		}
		if p.In == "" || p.Out == "" {
			t.Errorf("malformed pair %+v", p)
		}
	}
	for _, want := range []string{"A70", "A118"} {
		if !seen[want] {
			t.Errorf("no justification pair for output %s", want)
		}
	}
	pp := v.PropPairs()
	if len(pp) == 0 {
		t.Fatal("no propagation pairs")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := miniCPU(t)
	g := buildRCG(t, c)
	n := len(g.Edges)
	cl := g.Clone()
	data, _ := cl.NodeIndex("Data")
	a70, _ := cl.NodeIndex("A70")
	cl.AddCreatedEdge(data, a70, 0, 7, 0, 7)
	if len(g.Edges) != n {
		t.Error("clone mutation leaked into original")
	}
	if len(cl.Edges) != n+1 {
		t.Error("created edge not added to clone")
	}
}

func TestRerouteDriversSplitsStraddlingConns(t *testing.T) {
	conns := []rtl.Conn{{
		From: rtl.Endpoint{Comp: "R0", Pin: "q", Lo: 0, Hi: 7},
		To:   rtl.Endpoint{Comp: "OUT", Lo: 0, Hi: 7},
	}}
	dst := rtl.Endpoint{Comp: "OUT", Lo: 2, Hi: 5}
	got := rerouteDrivers(conns, dst, "XM1")
	if len(got) != 3 {
		t.Fatalf("want 3 split conns, got %d: %v", len(got), got)
	}
	// Below, overlap into the mux, above — in order.
	if got[0].To.Comp != "OUT" || got[0].To.Lo != 0 || got[0].To.Hi != 1 || got[0].From.Lo != 0 {
		t.Fatalf("low remainder wrong: %v", got[0])
	}
	if got[1].To.Comp != "XM1" || got[1].To.Pin != "in0" || got[1].To.Lo != 0 || got[1].To.Hi != 3 || got[1].From.Lo != 2 {
		t.Fatalf("mux feed wrong: %v", got[1])
	}
	if got[2].To.Comp != "OUT" || got[2].To.Lo != 6 || got[2].To.Hi != 7 || got[2].From.Lo != 6 {
		t.Fatalf("high remainder wrong: %v", got[2])
	}
}

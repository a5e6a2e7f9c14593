package trans_test

// RCG.Elaborate splices a core's DFT muxes into a copy of its RTL: the
// scan muxes HSCAN created (§2) and each version's created transparency
// muxes (§4). These tests prove the elaborated core is the hardware the
// analysis assumed: it synthesizes, it behaves like the original while
// no mux is engaged, and every DFT edge moves a value through its mux
// with the latency the RCG charges for it.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hscan"
	"repro/internal/rtl"
	"repro/internal/rtlsim"
	"repro/internal/synth"
	"repro/internal/systems"
	"repro/internal/trans"
)

// ladderRCGs inserts HSCAN into c and returns the result with the RCGs
// whose DFT hardware the tests elaborate: the base RCG (scan muxes
// only), then each version's (created transparency muxes too).
func ladderRCGs(t *testing.T, c *rtl.Core) (*hscan.Result, []*trans.RCG) {
	t.Helper()
	scan, err := hscan.Insert(c)
	if err != nil {
		t.Fatalf("%s: hscan: %v", c.Name, err)
	}
	g, err := trans.Build(c, scan)
	if err != nil {
		t.Fatalf("%s: build: %v", c.Name, err)
	}
	vs, err := trans.Versions(g)
	if err != nil {
		t.Fatalf("%s: versions: %v", c.Name, err)
	}
	rcgs := []*trans.RCG{g}
	for _, v := range vs {
		rcgs = append(rcgs, v.RCG)
	}
	return scan, rcgs
}

func elaborate(t *testing.T, g *trans.RCG) (*rtl.Core, map[int]string) {
	t.Helper()
	ec, names, err := g.Elaborate()
	if err != nil {
		t.Fatalf("%s: elaborate: %v", g.Core.Name, err)
	}
	return ec, names
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// dftEdgeMoves engages the elaborated mux of DFT edge e and checks that
// a payload placed at the edge's source slice reaches its destination
// slice after the RCG's latency: one cycle into a register or through a
// created output mux's pipeline register, none for a scan output tap.
// Two complementary payloads drive every bit both ways.
func dftEdgeMoves(ec *rtl.Core, g *trans.RCG, e *trans.Edge, mux string) error {
	from, to := g.Nodes[e.From], g.Nodes[e.To]
	w := e.SrcWidth()
	for _, payload := range []uint64{0xA5A5A5A5A5A5A5A5 & mask(w), 0x5A5A5A5A5A5A5A5A & mask(w)} {
		sim, err := rtlsim.New(ec)
		if err != nil {
			return err
		}
		if err := sim.ForceMux(mux, 1); err != nil {
			return err
		}
		if from.Kind == trans.NodeIn {
			err = sim.SetInput(from.Name, payload<<uint(e.SrcLo))
		} else {
			err = sim.SetReg(from.Name, payload<<uint(e.SrcLo))
		}
		if err != nil {
			return err
		}
		if to.Kind == trans.NodeReg && to.HasLoad {
			if err := sim.ForceLoad(to.Name, true); err != nil {
				return err
			}
		}
		if to.Kind == trans.NodeReg || e.Created {
			sim.Step()
		}
		got := sim.Reg(to.Name)
		if to.Kind == trans.NodeOut {
			if got, err = sim.Output(to.Name); err != nil {
				return err
			}
		}
		if got = (got >> uint(e.DstLo)) & mask(w); got != payload {
			return fmt.Errorf("edge %d %s[%d:%d]->%s[%d:%d] via %s: sent %#x got %#x",
				e.ID, from.Name, e.SrcHi, e.SrcLo, to.Name, e.DstHi, e.DstLo, mux, payload, got)
		}
	}
	return nil
}

// Every elaborated core, the base RCG's and each version's, synthesizes
// and, with every mux select left undriven (in0), matches the original
// register for register and output for output.
func TestElaboratedMissionMode(t *testing.T) {
	for _, c := range systemCores() {
		_, rcgs := ladderRCGs(t, c)
		for i, g := range rcgs {
			ec, names := elaborate(t, g)
			for _, e := range g.Edges {
				if (e.Created || e.ScanMux) && names[e.ID] == "" {
					t.Errorf("%s/%d: DFT edge %d has no elaborated mux", c.Name, i, e.ID)
				}
			}
			if len(ec.Muxes) != len(c.Muxes)+len(names) {
				t.Errorf("%s/%d: elaborated %d muxes onto %d, named %d", c.Name, i, len(ec.Muxes), len(c.Muxes), len(names))
			}
			if _, err := synth.Synthesize(ec); err != nil {
				t.Fatalf("%s/%d: elaborated core does not synthesize: %v", c.Name, i, err)
			}
			if err := sameMissionMode(c, ec); err != nil {
				t.Errorf("%s/%d: %v", c.Name, i, err)
			}
		}
	}
}

func systemCores() []*rtl.Core {
	return []*rtl.Core{systems.CPU(), systems.Preprocessor(), systems.Display(), systems.GCD()}
}

// sameMissionMode drives both cores' inputs with the same values for
// eight cycles and compares every register and output of orig.
func sameMissionMode(orig, ec *rtl.Core) error {
	a, err := rtlsim.New(orig)
	if err != nil {
		return err
	}
	b, err := rtlsim.New(ec)
	if err != nil {
		return err
	}
	v := uint64(0x9E3779B97F4A7C15)
	for cyc := 0; cyc < 8; cyc++ {
		for _, p := range orig.Inputs() {
			v = v*6364136223846793005 + 1442695040888963407
			a.SetInput(p.Name, v>>7)
			b.SetInput(p.Name, v>>7)
		}
		a.Step()
		b.Step()
		for _, r := range orig.Regs {
			if a.Reg(r.Name) != b.Reg(r.Name) {
				return fmt.Errorf("cycle %d: register %s: %#x vs %#x", cyc, r.Name, a.Reg(r.Name), b.Reg(r.Name))
			}
		}
		for _, p := range orig.Outputs() {
			x, _ := a.Output(p.Name)
			y, _ := b.Output(p.Name)
			if x != y {
				return fmt.Errorf("cycle %d: output %s: %#x vs %#x", cyc, p.Name, x, y)
			}
		}
	}
	return nil
}

// Every scan edge HSCAN created, into a register or onto an output tap,
// is a real path through its elaborated mux; so is every created
// transparency edge of every version of the ladder.
func TestElaboratedScanEdgesPhysical(t *testing.T) {
	var taps []string
	for _, c := range systemCores() {
		scan, rcgs := ladderRCGs(t, c)
		created, scanMuxes := 0, 0
		for _, e := range scan.Edges {
			if e.Created {
				created++
			}
		}
		for i, g := range rcgs {
			ec, names := elaborate(t, g)
			for _, e := range g.Edges {
				if !e.Created && !e.ScanMux {
					continue
				}
				if err := dftEdgeMoves(ec, g, e, names[e.ID]); err != nil {
					t.Errorf("%s/%d: %v", c.Name, i, err)
				}
				if i == 0 {
					scanMuxes++
					if g.Nodes[e.To].Kind == trans.NodeOut {
						taps = append(taps, c.Name+" "+g.Nodes[e.From].Name+"->"+g.Nodes[e.To].Name)
					}
				}
			}
		}
		if scanMuxes != created {
			t.Errorf("%s: %d created scan edges, %d scan-mux RCG edges", c.Name, created, scanMuxes)
		}
	}
	if want := []string{"DISPLAY LATCH->PORT1", "GCD Y->Rslt"}; !slices.Equal(taps, want) {
		t.Errorf("created scan output taps %v, want %v", taps, want)
	}
}

// Rewiring one elaborated scan mux's in1 to a wrong slice of its source
// must fail the edge check.
func TestElaboratedScanEdgeTamper(t *testing.T) {
	_, rcgs := ladderRCGs(t, systems.CPU())
	g := rcgs[0]
	ec, names := elaborate(t, g)
	for _, e := range g.Edges {
		if !e.ScanMux || g.Nodes[e.To].Kind != trans.NodeReg || e.SrcHi+1 >= g.Nodes[e.From].Width {
			continue
		}
		if err := dftEdgeMoves(ec, g, e, names[e.ID]); err != nil {
			t.Fatalf("untampered: %v", err)
		}
		i := slices.IndexFunc(ec.Conns, func(cn rtl.Conn) bool {
			return cn.To.Comp == names[e.ID] && cn.To.Pin == "in1"
		})
		bad := ec.Clone()
		bad.Conns[i].From.Lo++
		bad.Conns[i].From.Hi++
		if err := dftEdgeMoves(bad, g, e, names[e.ID]); err == nil {
			t.Fatalf("in1 of %s rewired to %s: edge check passed", names[e.ID], bad.Conns[i].From)
		}
		return
	}
	t.Fatal("no scan edge with a wider source to tamper with")
}

// The RCG built over the elaborated CPU has no virtual edge: each scan
// edge is an ordinary path steering its mux to in1, and every edge
// verifies on the RTL interpreter.
func TestElaboratedCoreTransparencyVerifies(t *testing.T) {
	_, rcgs := ladderRCGs(t, systems.CPU())
	g := rcgs[0]
	ec, names := elaborate(t, g)
	eg, err := trans.Build(ec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges {
		if !e.ScanMux {
			continue
		}
		hop := rtl.Hop{Mux: names[e.ID], Sel: 1}
		if !slices.ContainsFunc(eg.Edges, func(p *trans.Edge) bool {
			return eg.Nodes[p.From].Name == g.Nodes[e.From].Name && eg.Nodes[p.To].Name == g.Nodes[e.To].Name &&
				p.SrcLo == e.SrcLo && p.SrcHi == e.SrcHi && p.DstLo == e.DstLo && p.DstHi == e.DstHi &&
				slices.Contains(p.Hops, hop)
		}) {
			t.Errorf("scan edge %d has no physical path through %s", e.ID, hop)
		}
	}
	verified, skipped, err := rtlsim.VerifyAllEdges(ec, eg, 0x1234)
	if err != nil {
		t.Fatalf("verification on elaborated core: %v", err)
	}
	if skipped != 0 || verified != len(eg.Edges) {
		t.Errorf("elaborated core: %d verified, %d virtual of %d edges", verified, skipped, len(eg.Edges))
	}
}

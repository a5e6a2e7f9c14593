package rtlgen

import (
	"math/bits"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/hscan"
	"repro/internal/rtlsim"
	"repro/internal/synth"
	"repro/internal/trans"
)

const nCores = 30

func TestGeneratedCoresValid(t *testing.T) {
	cores := Many(nCores, 100)
	if len(cores) != nCores {
		t.Fatalf("generated %d/%d cores", len(cores), nCores)
	}
	for _, c := range cores {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, errA := Random(Params{Seed: 7})
	b, errB := Random(Params{Seed: 7})
	if errA != nil || errB != nil {
		t.Fatalf("generation failed: %v / %v", errA, errB)
	}
	if len(a.Conns) != len(b.Conns) || len(a.Regs) != len(b.Regs) {
		t.Fatal("same seed produced different cores")
	}
	for i := range a.Conns {
		if a.Conns[i] != b.Conns[i] {
			t.Fatalf("conn %d differs: %v vs %v", i, a.Conns[i], b.Conns[i])
		}
	}
}

// Property: the RTL interpreter and the synthesized gate-level netlist
// compute identical outputs cycle-by-cycle — two independent
// implementations of the same semantics must agree.
func TestRTLSimAgreesWithGateLevel(t *testing.T) {
	for _, c := range Many(nCores, 200) {
		sr, err := synth.Synthesize(c)
		if err != nil {
			t.Errorf("%s: synth: %v", c.Name, err)
			continue
		}
		gsim, err := gate.NewSim(sr.Netlist)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		rsim, err := rtlsim.New(c)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		r := rng{s: 999}
		for cycle := 0; cycle < 12; cycle++ {
			for _, p := range c.Inputs() {
				v := r.next() & ((1 << uint(p.Width)) - 1)
				rsim.SetInput(p.Name, v)
				for bit := 0; bit < p.Width; bit++ {
					line, _ := sr.LineOf(p.Name, "", bit)
					var w uint64
					if v&(1<<uint(bit)) != 0 {
						w = ^uint64(0)
					}
					gsim.SetPI(line, w)
				}
			}
			// Compare combinational outputs before the clock.
			for _, p := range c.Outputs() {
				want, err := rsim.Output(p.Name)
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				gsim.Eval()
				var got uint64
				for bit := 0; bit < p.Width; bit++ {
					line, _ := sr.LineOf(p.Name, "", bit)
					if gsim.Val[line]&1 != 0 {
						got |= 1 << uint(bit)
					}
				}
				if got != want {
					t.Fatalf("%s cycle %d: output %s rtlsim=%#x gate=%#x", c.Name, cycle, p.Name, want, got)
				}
			}
			rsim.Step()
			gsim.Step()
		}
	}
}

// Property: HSCAN covers every register exactly once and its scan links
// never demand contradictory selects on one multiplexer.
func TestHSCANChainCoverProperty(t *testing.T) {
	for _, c := range Many(nCores, 300) {
		scan, err := hscan.Insert(c)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		seen := map[string]int{}
		for _, ch := range scan.Chains {
			for _, r := range ch.Regs {
				seen[r]++
			}
		}
		for _, r := range c.Regs {
			if seen[r.Name] != 1 {
				t.Errorf("%s: register %s in %d chains", c.Name, r.Name, seen[r.Name])
			}
		}
		sel := map[string]int{}
		for _, ch := range scan.Chains {
			for _, l := range ch.Links {
				for _, h := range l.Path.Hops {
					if prev, ok := sel[h.Mux]; ok && prev != h.Sel {
						t.Errorf("%s: scan links disagree on mux %s (%d vs %d)", c.Name, h.Mux, prev, h.Sel)
					}
					sel[h.Mux] = h.Sel
				}
			}
		}
	}
}

// Property: every core gets a full transparency solution, the ladder is a
// monotone trade-off, and every physical RCG edge moves data exactly as
// claimed when replayed on the RTL interpreter.
func TestTransparencyLadderProperty(t *testing.T) {
	for _, c := range Many(nCores, 400) {
		scan, err := hscan.Insert(c)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		g, err := trans.Build(c, scan)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		vs, err := trans.Versions(g)
		if err != nil {
			t.Errorf("%s: versions: %v", c.Name, err)
			continue
		}
		if len(vs) == 0 {
			t.Errorf("%s: empty ladder", c.Name)
			continue
		}
		prevSum := 1 << 30
		prevCells := -1
		for _, v := range vs {
			sum := 0
			for _, p := range c.Inputs() {
				l := v.PropLatency(p.Name)
				if l < 0 {
					t.Errorf("%s %s: input %s unsolved", c.Name, v.Label, p.Name)
				}
				sum += l // 0 is legal: port-to-port feedthrough
			}
			for _, p := range c.Outputs() {
				l := v.JustLatency(p.Name)
				if l < 0 {
					t.Errorf("%s %s: output %s unsolved", c.Name, v.Label, p.Name)
				}
				sum += l
			}
			a := v.Area
			if sum >= prevSum {
				t.Errorf("%s %s: latency sum %d did not improve on %d", c.Name, v.Label, sum, prevSum)
			}
			if a.Cells() < prevCells {
				t.Errorf("%s %s: area %d shrank from %d", c.Name, v.Label, a.Cells(), prevCells)
			}
			prevSum, prevCells = sum, a.Cells()
		}
		if _, _, err := rtlsim.VerifyAllEdges(c, g, 0xbeef); err != nil {
			t.Errorf("%s: edge verification: %v", c.Name, err)
		}
	}
}

// exhaustive patterns over all controllable bits (PIs + flip-flops).
func allPatterns(n *gate.Netlist) []gate.Pattern {
	nPI := len(n.PIs())
	nFF := len(n.DFFs())
	bits := nPI + nFF
	if bits > 14 {
		return nil
	}
	var out []gate.Pattern
	for v := 0; v < 1<<uint(bits); v++ {
		p := gate.Pattern{PI: make([]byte, nPI)}
		if nFF > 0 {
			p.State = make([]byte, nFF)
		}
		for i := 0; i < nPI; i++ {
			p.PI[i] = byte(v >> uint(i) & 1)
		}
		for i := 0; i < nFF; i++ {
			p.State[i] = byte(v >> uint(nPI+i) & 1)
		}
		out = append(out, p)
	}
	return out
}

// Property: PODEM is sound and complete against exhaustive simulation on
// small circuits — a fault it proves untestable is detected by no pattern
// at all, and a fault it detects really is detected by its pattern set.
func TestPODEMSoundAndComplete(t *testing.T) {
	checked := 0
	for seed := uint64(500); seed < 560 && checked < 6; seed++ {
		c, err := Random(Params{Seed: seed, Regs: 2, Inputs: 1, Outputs: 1, Widths: []int{2, 4}})
		if err != nil {
			continue
		}
		sr, err := synth.Synthesize(c)
		if err != nil {
			continue
		}
		exhaustive := allPatterns(sr.Netlist)
		if exhaustive == nil {
			continue // too many controllable bits
		}
		checked++
		faults := sr.Netlist.Faults()
		truth, err := fsim.Combinational(sr.Netlist, exhaustive, faults)
		if err != nil {
			t.Fatal(err)
		}
		res, err := atpg.Generate(sr.Netlist, &atpg.Options{BacktrackLimit: 10000, RandomPatterns: -1})
		if err != nil {
			t.Fatal(err)
		}
		claimed, err := fsim.Combinational(sr.Netlist, res.Patterns, faults)
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			truthDet := truth.DetectedBy[i] >= 0
			atpgDet := claimed.DetectedBy[i] >= 0
			if truthDet && !atpgDet && res.Stats.Aborted == 0 {
				t.Errorf("%s: fault %v detectable (exhaustive) but missed by complete ATPG", c.Name, faults[i])
			}
			if !truthDet && atpgDet {
				t.Errorf("%s: fault %v claimed detected but no pattern can detect it", c.Name, faults[i])
			}
		}
		// Aggregate agreement when nothing aborted: coverage identical.
		if res.Stats.Aborted == 0 && truth.Detected != claimed.Detected {
			t.Errorf("%s: exhaustive detects %d, ATPG set detects %d", c.Name, truth.Detected, claimed.Detected)
		}
	}
	if checked == 0 {
		t.Skip("no small-enough cores generated")
	}
	t.Logf("cross-checked PODEM against exhaustive simulation on %d cores", checked)
}

// Property: the event-driven combinational fault simulator agrees with a
// brute-force full-evaluation reference on random circuits and patterns,
// down to the first detecting pattern of every fault. Pattern counts of
// 1, 24, 64 and 100 cover partial, full and multi-batch lane masks; one
// simulator serves every run on a netlist, so state leaking from one call
// into the next fails the comparison.
func TestFaultSimAgreesWithBruteForce(t *testing.T) {
	for _, c := range Many(8, 600) {
		sr, err := synth.Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		n := sr.Netlist
		// Random patterns.
		r := rng{s: 31}
		var pats []gate.Pattern
		for k := 0; k < 100; k++ {
			p := gate.Pattern{PI: make([]byte, len(n.PIs()))}
			if len(n.DFFs()) > 0 {
				p.State = make([]byte, len(n.DFFs()))
			}
			for i := range p.PI {
				p.PI[i] = byte(r.next() & 1)
			}
			for i := range p.State {
				p.State[i] = byte(r.next() & 1)
			}
			pats = append(pats, p)
		}
		faults := n.Faults()
		sim, err := fsim.NewSimulator(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{100, 1, 64, 24, 1} {
			by := make([]int, len(faults))
			for i := range by {
				by[i] = -1
			}
			found, err := sim.Detect(pats[:k], faults, by)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(t, n, pats[:k], faults)
			detected := 0
			for i := range faults {
				if by[i] != want[i] {
					t.Errorf("%s, %d patterns: fault %v: first detected by pattern %d, brute force says %d",
						c.Name, k, faults[i], by[i], want[i])
				}
				if want[i] >= 0 {
					detected++
				}
			}
			if found != detected {
				t.Errorf("%s, %d patterns: Detect reports %d new detections, brute force %d", c.Name, k, found, detected)
			}
		}
	}
}

// bruteForce finds each fault's first detecting pattern (-1 if none) by
// full netlist evaluation per fault and pattern batch using
// gate.InjectedSim (a third, independent evaluator).
func bruteForce(t *testing.T, n *gate.Netlist, pats []gate.Pattern, faults []gate.Fault) []int {
	t.Helper()
	good, err := gate.NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	det := make([]int, len(faults))
	for i := range det {
		det[i] = -1
	}
	dffs := n.DFFs()
	for base := 0; base < len(pats); base += 64 {
		batch := pats[base:]
		if len(batch) > 64 {
			batch = batch[:64]
		}
		k, err := good.ApplyPatterns(batch)
		if err != nil {
			t.Fatal(err)
		}
		mask := ^uint64(0)
		if k < 64 {
			mask = 1<<uint(k) - 1
		}
		good.Eval()
		goodPO := good.POWords(nil)
		goodCap := make([]uint64, len(dffs))
		for i, d := range dffs {
			goodCap[i] = good.Val[n.Gates[d].Fanin[0]]
		}
		for fi, f := range faults {
			if det[fi] >= 0 {
				continue
			}
			bad, err := gate.NewInjectedSim(n, f, ^uint64(0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bad.ApplyPatterns(batch); err != nil {
				t.Fatal(err)
			}
			// Stem faults on sources must be forced before eval.
			bad.Eval()
			var diff uint64
			for i, po := range n.POs {
				diff |= (bad.Val[po] ^ goodPO[i]) & mask
			}
			for i, d := range dffs {
				cap := bad.Val[n.Gates[d].Fanin[0]]
				if f.Branch >= 0 && f.Line == d {
					if f.Stuck == 0 {
						cap = 0
					} else {
						cap = ^uint64(0)
					}
				}
				diff |= (cap ^ goodCap[i]) & mask
			}
			if diff != 0 {
				det[fi] = base + bits.TrailingZeros64(diff)
			}
		}
	}
	return det
}

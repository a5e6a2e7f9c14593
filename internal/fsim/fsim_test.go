package fsim

import (
	"testing"

	"repro/internal/gate"
)

func xorChain() *gate.Netlist {
	// z = a ^ b ^ c: every fault is detectable.
	n := &gate.Netlist{Name: "xc"}
	a := n.Add(gate.Input)
	b := n.Add(gate.Input)
	c := n.Add(gate.Input)
	x1 := n.Add(gate.Xor, a, b)
	x2 := n.Add(gate.Xor, x1, c)
	n.MarkPO(x2, "z")
	return n
}

func TestCombinationalExhaustiveDetectsAll(t *testing.T) {
	n := xorChain()
	var pats []gate.Pattern
	for v := 0; v < 8; v++ {
		pats = append(pats, gate.Pattern{PI: []byte{byte(v & 1), byte(v >> 1 & 1), byte(v >> 2 & 1)}})
	}
	faults := n.Faults()
	res, err := Combinational(n, pats, faults)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != res.Total {
		t.Errorf("detected %d/%d with exhaustive patterns", res.Detected, res.Total)
	}
	if res.Coverage() != 100 {
		t.Errorf("coverage = %.1f", res.Coverage())
	}
	for i, by := range res.DetectedBy {
		if by < 0 || by >= len(pats) {
			t.Errorf("fault %d: DetectedBy = %d out of range", i, by)
		}
	}
}

func TestCombinationalNoPatternsDetectsNothing(t *testing.T) {
	n := xorChain()
	res, err := Combinational(n, nil, n.Faults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 0 {
		t.Errorf("detected %d faults with no patterns", res.Detected)
	}
}

func TestCombinationalScanCapture(t *testing.T) {
	// in -> DFF: faults on the DFF data path are observed via scan capture.
	n := &gate.Netlist{Name: "cap"}
	in := n.Add(gate.Input)
	inv := n.Add(gate.Inv, in)
	d := n.Add(gate.DFF, inv)
	_ = d
	pats := []gate.Pattern{
		{PI: []byte{0}, State: []byte{0}},
		{PI: []byte{1}, State: []byte{1}},
	}
	faults := n.Faults()
	if len(faults) == 0 {
		t.Fatal("no faults on capture path")
	}
	res, err := Combinational(n, pats, faults)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != res.Total {
		t.Errorf("scan capture missed faults: %d/%d", res.Detected, res.Total)
	}
}

func TestSequentialDetectsShallowFaults(t *testing.T) {
	// in -> inv -> DFF -> PO: faults visible one cycle after excitation.
	n := &gate.Netlist{Name: "seq"}
	in := n.Add(gate.Input)
	inv := n.Add(gate.Inv, in)
	d := n.Add(gate.DFF, inv)
	n.MarkPO(d, "q")
	stim := &Stimulus{Cycles: [][]byte{{0}, {1}, {0}, {1}}}
	res, err := Sequential(n, stim, n.Faults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != res.Total {
		t.Errorf("sequential sim missed faults: %d/%d (by=%v)", res.Detected, res.Total, res.DetectedBy)
	}
}

func TestSequentialDeepStateNeedsCycles(t *testing.T) {
	// 4-stage shift register: stuck faults at the head need >= 4 cycles to
	// reach the PO; a 1-cycle stimulus must detect strictly fewer faults.
	n := &gate.Netlist{Name: "deep"}
	in := n.Add(gate.Input)
	d1 := n.Add(gate.DFF, in)
	d2 := n.Add(gate.DFF, d1)
	d3 := n.Add(gate.DFF, d2)
	d4 := n.Add(gate.DFF, d3)
	n.MarkPO(d4, "q")
	faults := n.Faults()
	short := &Stimulus{Cycles: [][]byte{{1}}}
	long := &Stimulus{Cycles: [][]byte{{1}, {0}, {1}, {0}, {1}, {0}, {1}, {0}}}
	rShort, err := Sequential(n, short, faults)
	if err != nil {
		t.Fatal(err)
	}
	rLong, err := Sequential(n, long, faults)
	if err != nil {
		t.Fatal(err)
	}
	if rShort.Detected >= rLong.Detected {
		t.Errorf("short stimulus detected %d, long %d: want strictly more with depth",
			rShort.Detected, rLong.Detected)
	}
	if rLong.Detected != rLong.Total {
		t.Errorf("long stimulus should cover shift register: %d/%d", rLong.Detected, rLong.Total)
	}
}

func TestSequentialManyFaultBatches(t *testing.T) {
	// More than 63 faults exercises batching. Build a wide XOR tree.
	n := &gate.Netlist{Name: "wide"}
	var ins []int
	for i := 0; i < 32; i++ {
		ins = append(ins, n.Add(gate.Input))
	}
	level := ins
	for len(level) > 1 {
		var next []int
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, n.Add(gate.Xor, level[i], level[i+1]))
		}
		level = next
	}
	n.MarkPO(level[0], "z")
	faults := n.Faults()
	if len(faults) <= 63 {
		t.Fatalf("want > 63 faults, got %d", len(faults))
	}
	stim := RandomStimulus(n, 16, 42)
	res, err := Sequential(n, stim, faults)
	if err != nil {
		t.Fatal(err)
	}
	// XOR trees are fully random-testable; 16 random cycles should catch
	// nearly everything.
	if res.Coverage() < 95 {
		t.Errorf("coverage = %.1f%%, want >= 95%%", res.Coverage())
	}
}

func TestRandomStimulusShapeAndDeterminism(t *testing.T) {
	n := xorChain()
	s1 := RandomStimulus(n, 10, 7)
	s2 := RandomStimulus(n, 10, 7)
	if len(s1.Cycles) != 10 {
		t.Fatalf("cycles = %d", len(s1.Cycles))
	}
	for c := range s1.Cycles {
		if len(s1.Cycles[c]) != 3 {
			t.Fatalf("row width = %d, want 3", len(s1.Cycles[c]))
		}
		for i := range s1.Cycles[c] {
			if s1.Cycles[c][i] != s2.Cycles[c][i] {
				t.Fatal("stimulus not deterministic")
			}
			if s1.Cycles[c][i] > 1 {
				t.Fatal("stimulus values must be 0/1")
			}
		}
	}
}

func TestSequentialStimulusWidthMismatch(t *testing.T) {
	n := xorChain()
	bad := &Stimulus{Cycles: [][]byte{{1}}}
	if _, err := Sequential(n, bad, n.Faults()); err == nil {
		t.Error("mismatched stimulus accepted")
	}
}

func TestBranchFaultLaneIsolation(t *testing.T) {
	// Two faults in one sequential batch must not interfere.
	n := &gate.Netlist{Name: "iso"}
	a := n.Add(gate.Input)
	b := n.Add(gate.Input)
	y := n.Add(gate.And, a, b)
	z := n.Add(gate.Or, a, b)
	n.MarkPO(y, "y")
	n.MarkPO(z, "z")
	faults := []gate.Fault{
		{Line: y, Branch: 0, Stuck: 1},
		{Line: z, Branch: 1, Stuck: 0},
	}
	stim := &Stimulus{Cycles: [][]byte{{0, 1}, {1, 0}, {0, 0}, {1, 1}}}
	res, err := Sequential(n, stim, faults)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 2 {
		t.Errorf("detected %d/2 (by=%v)", res.Detected, res.DetectedBy)
	}
	// Fault 0 (AND sees a stuck 1): first excited at cycle 0 (a=0,b=1).
	if res.DetectedBy[0] != 0 {
		t.Errorf("fault 0 detected at cycle %d, want 0", res.DetectedBy[0])
	}
	// Fault 1 (OR sees b stuck 0): first excited at cycle 0 (a=0,b=1).
	if res.DetectedBy[1] != 0 {
		t.Errorf("fault 1 detected at cycle %d, want 0", res.DetectedBy[1])
	}
}

func TestCombinationalRejectsBadInput(t *testing.T) {
	n := xorChain()
	if _, err := Combinational(n, []gate.Pattern{{PI: []byte{1}}}, n.Faults()); err == nil {
		t.Error("pattern with 1 PI value accepted for a 3-PI netlist")
	}
	cyc := &gate.Netlist{Name: "cyc"}
	a := cyc.Add(gate.Input)
	g1 := cyc.Add(gate.And, a, a)
	g2 := cyc.Add(gate.Or, g1, a)
	cyc.Gates[g1].Fanin[1] = g2
	cyc.MarkPO(g2, "z")
	if _, err := Combinational(cyc, nil, cyc.Faults()); err == nil {
		t.Error("combinational cycle accepted")
	}
}

// c17 is the ISCAS-85 benchmark c17: six NANDs with three internal
// fanout stems (3, 11 and 16 in the benchmark's numbering).
func c17() *gate.Netlist {
	n := &gate.Netlist{Name: "c17"}
	i1, i2, i3, i6, i7 := n.Add(gate.Input), n.Add(gate.Input), n.Add(gate.Input), n.Add(gate.Input), n.Add(gate.Input)
	g10 := n.Add(gate.Nand, i1, i3)
	g11 := n.Add(gate.Nand, i3, i6)
	g16 := n.Add(gate.Nand, i2, g11)
	g19 := n.Add(gate.Nand, g11, i7)
	n.MarkPO(n.Add(gate.Nand, g10, g16), "22")
	n.MarkPO(n.Add(gate.Nand, g16, g19), "23")
	return n
}

func TestSimulatorSurvivesStampWrap(t *testing.T) {
	// The per-fault stamps wrap around after 2^32 faulty machines, the
	// per-word stamps after 2^32 words. Start simulators just below both
	// wraps, so that they land on each fault and each word in turn; every
	// one must agree with a fresh simulator. Each starts once clean, and
	// once with the entries an earlier round leaves behind: every line
	// stamped 1 with a faulty value of all ones, a queued gate and a stem
	// observed in every lane.
	n := c17()
	pat := func(v int) gate.Pattern {
		return gate.Pattern{PI: []byte{byte(v & 1), byte(v >> 1 & 1), byte(v >> 2 & 1), byte(v >> 3 & 1), byte(v >> 4 & 1)}}
	}
	// One input value per word keeps faults pending from word to word.
	const words = 4
	var pats []gate.Pattern
	for i := 0; i < words*64; i++ {
		pats = append(pats, pat(i/64*13+5))
	}
	faults := n.Faults()
	want, err := Combinational(n, pats, faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []bool{false, true} {
		for off := 0; off <= len(faults); off++ {
			s, err := NewSimulator(n)
			if err != nil {
				t.Fatal(err)
			}
			if stale {
				for i := range n.Gates {
					s.fv[i], s.epoch[i], s.queued[i] = ^uint64(0), 1, 1
					s.seen[i], s.seenAt[i] = ^uint64(0), 1
				}
			}
			s.cur = ^uint32(0) - uint32(off)
			s.word = ^uint32(0) - uint32(off%(words+1))
			by := make([]int, len(faults))
			for i := range by {
				by[i] = -1
			}
			if _, err := s.Detect(pats, faults, by); err != nil {
				t.Fatal(err)
			}
			for i := range by {
				if by[i] != want.DetectedBy[i] {
					t.Fatalf("wrap at offset %d (stale entries %v): fault %v first detected by %d, want %d",
						off, stale, faults[i], by[i], want.DetectedBy[i])
				}
			}
		}
	}
}

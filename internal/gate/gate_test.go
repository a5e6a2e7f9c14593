package gate

import (
	"testing"
	"testing/quick"
)

// fullAdder builds a 1-bit full adder: sum = a^b^cin, cout = ab + cin(a^b).
func fullAdder() (*Netlist, [3]int, [2]int) {
	n := &Netlist{Name: "fa"}
	a := n.AddNamed("a", Input)
	b := n.AddNamed("b", Input)
	cin := n.AddNamed("cin", Input)
	axb := n.Add(Xor, a, b)
	sum := n.Add(Xor, axb, cin)
	ab := n.Add(And, a, b)
	caxb := n.Add(And, cin, axb)
	cout := n.Add(Or, ab, caxb)
	n.MarkPO(sum, "sum")
	n.MarkPO(cout, "cout")
	return n, [3]int{a, b, cin}, [2]int{sum, cout}
}

func TestFullAdderTruthTable(t *testing.T) {
	n, in, _ := fullAdder()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	// All 8 input combinations in parallel lanes.
	var wa, wb, wc uint64
	for p := 0; p < 8; p++ {
		if p&1 != 0 {
			wa |= 1 << uint(p)
		}
		if p&2 != 0 {
			wb |= 1 << uint(p)
		}
		if p&4 != 0 {
			wc |= 1 << uint(p)
		}
	}
	s.SetPI(in[0], wa)
	s.SetPI(in[1], wb)
	s.SetPI(in[2], wc)
	s.Eval()
	for p := 0; p < 8; p++ {
		a, b, c := p&1, (p>>1)&1, (p>>2)&1
		wantSum := uint64((a ^ b ^ c))
		wantCout := uint64((a&b | c&(a^b)))
		if got := (s.PO(0) >> uint(p)) & 1; got != wantSum {
			t.Errorf("pattern %d: sum = %d, want %d", p, got, wantSum)
		}
		if got := (s.PO(1) >> uint(p)) & 1; got != wantCout {
			t.Errorf("pattern %d: cout = %d, want %d", p, got, wantCout)
		}
	}
}

func TestAllGateTypes(t *testing.T) {
	n := &Netlist{Name: "types"}
	a := n.Add(Input)
	b := n.Add(Input)
	sel := n.Add(Input)
	ids := map[string]int{
		"buf":  n.Add(Buf, a),
		"inv":  n.Add(Inv, a),
		"and":  n.Add(And, a, b),
		"or":   n.Add(Or, a, b),
		"nand": n.Add(Nand, a, b),
		"nor":  n.Add(Nor, a, b),
		"xor":  n.Add(Xor, a, b),
		"xnor": n.Add(Xnor, a, b),
		"mux":  n.Add(Mux, a, b, sel),
		"c0":   n.Add(Const0),
		"c1":   n.Add(Const1),
	}
	for name, id := range ids {
		n.MarkPO(id, name)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	check := func(av, bv, sv uint64) {
		s.SetPI(a, av)
		s.SetPI(b, bv)
		s.SetPI(sel, sv)
		s.Eval()
		want := map[string]uint64{
			"buf": av, "inv": ^av, "and": av & bv, "or": av | bv,
			"nand": ^(av & bv), "nor": ^(av | bv), "xor": av ^ bv,
			"xnor": ^(av ^ bv), "mux": (av &^ sv) | (bv & sv),
			"c0": 0, "c1": ^uint64(0),
		}
		for name, id := range ids {
			if s.Val[id] != want[name] {
				t.Errorf("%s(a=%x,b=%x,s=%x) = %x, want %x", name, av, bv, sv, s.Val[id], want[name])
			}
		}
	}
	check(0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00, 0xAAAAAAAAAAAAAAAA)
	check(0, ^uint64(0), 0x123456789ABCDEF0)
}

func TestSimPropertyMuxAlgebra(t *testing.T) {
	// Property: mux(a,b,sel) == (a AND NOT sel) OR (b AND sel) for random words.
	n := &Netlist{Name: "muxp"}
	a := n.Add(Input)
	b := n.Add(Input)
	sel := n.Add(Input)
	m := n.Add(Mux, a, b, sel)
	n.MarkPO(m, "m")
	s, _ := NewSim(n)
	f := func(av, bv, sv uint64) bool {
		s.SetPI(a, av)
		s.SetPI(b, bv)
		s.SetPI(sel, sv)
		s.Eval()
		return s.PO(0) == (av&^sv)|(bv&sv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequentialShiftRegister(t *testing.T) {
	// 3-stage shift register: in -> d0 -> d1 -> d2 -> out.
	n := &Netlist{Name: "shift"}
	in := n.Add(Input)
	d0 := n.Add(DFF, in)
	d1 := n.Add(DFF, d0)
	d2 := n.Add(DFF, d1)
	n.MarkPO(d2, "out")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	seq := []uint64{1, 0, 1, 1, 0, 0, 1}
	var got []uint64
	for _, v := range seq {
		s.SetPI(in, v)
		s.Step()
		got = append(got, s.PO(0)&1)
	}
	// Output lags input by 3 cycles; before that it is 0.
	want := []uint64{0, 0, 1, 0, 1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cycle %d: out = %d, want %d (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := &Netlist{Name: "cyc"}
	a := n.Add(Input)
	g1 := n.Add(And, a, a) // placeholder fanin, patched below
	g2 := n.Add(Or, g1, a)
	n.Gates[g1].Fanin[1] = g2 // create cycle g1 -> g2 -> g1
	if err := n.Validate(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	// A DFF in a loop is legal (sequential feedback).
	n := &Netlist{Name: "seqcyc"}
	a := n.Add(Input)
	d := n.Add(DFF, 0) // patched below
	x := n.Add(Xor, a, d)
	n.Gates[d].Fanin[0] = x
	n.MarkPO(x, "x")
	if err := n.Validate(); err != nil {
		t.Fatalf("sequential feedback rejected: %v", err)
	}
	// It toggles: with a=1 held, x alternates 1,0,1,0...
	s, _ := NewSim(n)
	s.SetPI(a, 1)
	var got []uint64
	for i := 0; i < 4; i++ {
		s.Step()
		got = append(got, s.PO(0)&1)
	}
	// After Step the DFF has captured; PO reflects next Eval... Step does
	// Eval then clock, so PO(0) read after Step is pre-clock value.
	want := []uint64{1, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("toggle sequence = %v, want %v", got, want)
		}
	}
}

func TestFaultListShape(t *testing.T) {
	n, _, _ := fullAdder()
	faults := n.Faults()
	if len(faults) == 0 {
		t.Fatal("no faults generated")
	}
	if len(faults)%2 != 0 {
		t.Errorf("fault list should pair sa0/sa1, got %d", len(faults))
	}
	seen := map[Fault]bool{}
	for _, f := range faults {
		if seen[f] {
			t.Errorf("duplicate fault %v", f)
		}
		seen[f] = true
		if f.Stuck > 1 {
			t.Errorf("bad stuck value in %v", f)
		}
	}
}

func TestInjectedSimStuckAt(t *testing.T) {
	n, in, _ := fullAdder()
	// Stuck-at-0 on input a's stem: with a=1,b=0,cin=0 sum should flip 1->0.
	f := Fault{Line: in[0], Branch: -1, Stuck: 0}
	s, err := NewInjectedSim(n, f, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	s.SetPI(in[0], ^uint64(0))
	s.SetPI(in[1], 0)
	s.SetPI(in[2], 0)
	s.Eval()
	if s.PO(0) != 0 {
		t.Errorf("faulty sum = %x, want 0 (a stuck at 0)", s.PO(0))
	}
	// Same but mask only lane 0: lane 1 stays good.
	s2, _ := NewInjectedSim(n, f, 1)
	s2.SetPI(in[0], ^uint64(0))
	s2.SetPI(in[1], 0)
	s2.SetPI(in[2], 0)
	s2.Eval()
	if got := s2.PO(0) & 1; got != 0 {
		t.Errorf("lane0 faulty sum = %d, want 0", got)
	}
	if got := (s2.PO(0) >> 1) & 1; got != 1 {
		t.Errorf("lane1 good sum = %d, want 1", got)
	}
}

func TestInjectedBranchFault(t *testing.T) {
	// y = a AND b; z = a OR b. Branch fault: AND's view of a stuck at 1.
	n := &Netlist{Name: "br"}
	a := n.Add(Input)
	b := n.Add(Input)
	y := n.Add(And, a, b)
	z := n.Add(Or, a, b)
	n.MarkPO(y, "y")
	n.MarkPO(z, "z")
	f := Fault{Line: y, Branch: 0, Stuck: 1}
	s, err := NewInjectedSim(n, f, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	s.SetPI(a, 0)
	s.SetPI(b, ^uint64(0))
	s.Eval()
	if s.PO(0) != ^uint64(0) {
		t.Errorf("faulty y = %x, want all-ones (branch a@AND stuck at 1)", s.PO(0))
	}
	if s.PO(1) != ^uint64(0) {
		t.Errorf("z = %x, want all-ones (OR sees the true a=0|b=1)", s.PO(1))
	}
}

func TestLevels(t *testing.T) {
	n, _, _ := fullAdder()
	lv, err := n.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// sum = Xor(Xor(a,b),cin) is at level 2.
	if lv[n.POs[0]] != 2 {
		t.Errorf("sum level = %d, want 2", lv[n.POs[0]])
	}
	// cout = Or(And(a,b), And(cin, Xor(a,b))) sits at level 3.
	if lv[n.POs[1]] != 3 {
		t.Errorf("cout level = %d, want 3", lv[n.POs[1]])
	}
}

func TestCombFanoutsSkipDFFs(t *testing.T) {
	// a feeds an inverter and a DFF; only the inverter is a
	// combinational fanout.
	n := &Netlist{Name: "fo"}
	a := n.Add(Input)
	inv := n.Add(Inv, a)
	d := n.Add(DFF, a)
	and := n.Add(And, inv, d)
	fo := n.CombFanouts()
	if len(fo[a]) != 1 || fo[a][0] != inv {
		t.Errorf("fanouts of a = %v, want [%d]", fo[a], inv)
	}
	if len(fo[d]) != 1 || fo[d][0] != and {
		t.Errorf("fanouts of the DFF = %v, want [%d]", fo[d], and)
	}
	if all := n.Fanouts(); len(all[a]) != 2 {
		t.Errorf("Fanouts of a = %v, want the inverter and the DFF", all[a])
	}
}

func TestStatsAndArea(t *testing.T) {
	n, _, _ := fullAdder()
	st := n.Stats()
	if st.PIs != 3 || st.POs != 2 || st.FFs != 0 || st.Gates != 5 {
		t.Errorf("stats = %+v", st)
	}
	area := n.Area()
	if area.Cells() != 5 {
		t.Errorf("area = %d cells, want 5", area.Cells())
	}
}

func TestApplyPatterns(t *testing.T) {
	n, _, _ := fullAdder()
	s, _ := NewSim(n)
	pats := []Pattern{
		{PI: []byte{1, 1, 0}},
		{PI: []byte{1, 1, 1}},
	}
	k, err := s.ApplyPatterns(pats)
	if err != nil || k != 2 {
		t.Fatalf("ApplyPatterns: k=%d err=%v", k, err)
	}
	s.Eval()
	if got := s.PO(1) & 3; got != 3 {
		t.Errorf("cout lanes = %b, want 11", got)
	}
	if got := s.PO(0) & 3; got != 2 {
		t.Errorf("sum lanes = %b, want 10", got)
	}
	if _, err := s.ApplyPatterns([]Pattern{{PI: []byte{1}}}); err == nil {
		t.Error("short pattern accepted")
	}
}

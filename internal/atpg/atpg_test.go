package atpg

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/rtl"
	"repro/internal/synth"
	"repro/internal/systems"
)

func fullAdder() *gate.Netlist {
	n := &gate.Netlist{Name: "fa"}
	a := n.Add(gate.Input)
	b := n.Add(gate.Input)
	cin := n.Add(gate.Input)
	axb := n.Add(gate.Xor, a, b)
	sum := n.Add(gate.Xor, axb, cin)
	ab := n.Add(gate.And, a, b)
	caxb := n.Add(gate.And, cin, axb)
	cout := n.Add(gate.Or, ab, caxb)
	n.MarkPO(sum, "sum")
	n.MarkPO(cout, "cout")
	return n
}

// verify checks that the generated patterns detect exactly the claimed
// number of faults via independent fault simulation.
func verify(t *testing.T, n *gate.Netlist, res *Result) {
	t.Helper()
	faults := n.Faults()
	fr, err := fsim.Combinational(n, res.Patterns, faults)
	if err != nil {
		t.Fatalf("fsim: %v", err)
	}
	if fr.Detected != res.Stats.Detected {
		t.Errorf("fsim detects %d faults, ATPG claimed %d", fr.Detected, res.Stats.Detected)
	}
}

func TestFullAdder100Percent(t *testing.T) {
	n := fullAdder()
	res, err := Generate(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FaultCoverage() != 100 {
		t.Errorf("coverage = %.1f%%, want 100%% (stats %+v)", res.Stats.FaultCoverage(), res.Stats)
	}
	if res.Stats.Aborted != 0 {
		t.Errorf("aborted = %d, want 0", res.Stats.Aborted)
	}
	verify(t, n, res)
}

func TestRedundantFaultProvedUntestable(t *testing.T) {
	// z = a OR (a AND b): the AND gate is redundant; its sa0 is untestable.
	n := &gate.Netlist{Name: "red"}
	a := n.Add(gate.Input)
	b := n.Add(gate.Input)
	ab := n.Add(gate.And, a, b)
	z := n.Add(gate.Or, a, ab)
	n.MarkPO(z, "z")
	res, err := Generate(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Untestable == 0 {
		t.Errorf("expected some untestable faults, stats %+v", res.Stats)
	}
	if res.Stats.TestEfficiency() != 100 {
		t.Errorf("test efficiency = %.1f%%, want 100%%", res.Stats.TestEfficiency())
	}
	verify(t, n, res)
}

func TestFullScanSequentialCore(t *testing.T) {
	// An RTL core with registers: full-scan ATPG treats DFFs as pseudo
	// PIs/POs and should reach high coverage.
	c := must(rtl.NewCore("seq").
		In("a", 4).In("b", 4).
		Out("z", 4).
		Reg("r1", 4).Reg("r2", 4).
		Unit(rtl.Unit{Name: "add", Op: rtl.OpAdd, Width: 4}).
		Wire("a", "r1.d").
		Wire("b", "r2.d").
		Wire("r1.q", "add.in0").
		Wire("r2.q", "add.in1").
		Wire("add.out", "z").
		Build())
	sr, err := synth.Synthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(sr.Netlist, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The adder's unused carry-out makes its top-bit carry cone genuinely
	// redundant, so demand full *efficiency*, not full coverage.
	if res.Stats.TestEfficiency() < 99.9 {
		t.Errorf("efficiency = %.1f%%, want 100%% (stats %+v)", res.Stats.TestEfficiency(), res.Stats)
	}
	if res.Stats.FaultCoverage() < 85 {
		t.Errorf("coverage = %.1f%%, want >= 85%% (stats %+v)", res.Stats.FaultCoverage(), res.Stats)
	}
	for _, p := range res.Patterns {
		if p.State == nil {
			t.Fatal("pattern missing scan state for sequential netlist")
		}
	}
	verify(t, sr.Netlist, res)
}

func TestMuxHeavyCircuit(t *testing.T) {
	c := must(rtl.NewCore("muxy").
		In("a", 4).In("b", 4).In("x", 4).In("y", 4).In("s", 2).
		Out("z", 4).
		Mux("m", 4, 4).
		Wire("a", "m.in0").Wire("b", "m.in1").Wire("x", "m.in2").Wire("y", "m.in3").
		Wire("s", "m.sel").
		Wire("m.out", "z").
		Build())
	sr, err := synth.Synthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(sr.Netlist, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FaultCoverage() < 99 {
		t.Errorf("coverage = %.1f%% (stats %+v)", res.Stats.FaultCoverage(), res.Stats)
	}
	verify(t, sr.Netlist, res)
}

func TestCloudCoverage(t *testing.T) {
	// Random-logic cloud: most faults should be testable; efficiency must
	// account for every fault.
	c := must(rtl.NewCore("cloudy").
		In("a", 8).
		Out("z", 4).
		Cloud("ctl", 1, 8, 4, 120).
		Wire("a", "ctl.in0").
		Wire("ctl.out", "z").
		Build())
	sr, err := synth.Synthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(sr.Netlist, &Options{BacktrackLimit: 256})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Detected+st.Untestable+st.Aborted != st.Faults {
		t.Errorf("fault accounting broken: %+v", st)
	}
	if st.TestEfficiency() < 90 {
		t.Errorf("test efficiency = %.1f%%, want >= 90%% (%+v)", st.TestEfficiency(), st)
	}
	verify(t, sr.Netlist, res)
}

func TestCompactionKeepsCoverage(t *testing.T) {
	n := fullAdder()
	resFull, err := Generate(n, &Options{Compact: false})
	if err != nil {
		t.Fatal(err)
	}
	faults := n.Faults()
	compacted, err := Compact(n, resFull.Patterns, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) > len(resFull.Patterns) {
		t.Errorf("compaction grew the set: %d -> %d", len(resFull.Patterns), len(compacted))
	}
	fr1, _ := fsim.Combinational(n, resFull.Patterns, faults)
	fr2, _ := fsim.Combinational(n, compacted, faults)
	if fr2.Detected < fr1.Detected {
		t.Errorf("compaction lost coverage: %d -> %d", fr1.Detected, fr2.Detected)
	}
}

func TestCompactRejectsWrongWidthPattern(t *testing.T) {
	n := fullAdder()
	good := []gate.Pattern{{PI: []byte{0, 1, 1}}, {PI: []byte{1, 1, 0}}}
	for _, bad := range []gate.Pattern{
		{PI: []byte{1, 0}},                      // too few PI values
		{PI: []byte{1, 0, 1}, State: []byte{1}}, // state for a netlist without DFFs
	} {
		pats := append(append([]gate.Pattern(nil), good...), bad)
		got, err := Compact(n, pats, n.Faults())
		if err == nil {
			t.Errorf("pattern %+v: Compact returned %d patterns and no error", bad, len(got))
		}
	}
}

func TestGenerateRejectsCyclicNetlist(t *testing.T) {
	n := &gate.Netlist{Name: "cyc"}
	a := n.Add(gate.Input)
	g1 := n.Add(gate.And, a, a)
	g2 := n.Add(gate.Or, g1, a)
	n.Gates[g1].Fanin[1] = g2
	n.MarkPO(g2, "z")
	if _, err := Generate(n, nil); err == nil {
		t.Error("Generate accepted a combinational cycle")
	}
	if _, err := Compact(n, nil, nil); err == nil {
		t.Error("Compact accepted a combinational cycle")
	}
}

func TestCompactKeepsSetThatDetectsNothing(t *testing.T) {
	n := fullAdder()
	pats := []gate.Pattern{{PI: []byte{0, 1, 1}}, {PI: []byte{1, 1, 0}}}
	got, err := Compact(n, pats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pats) {
		t.Errorf("Compact with no faults kept %d of %d patterns, want all", len(got), len(pats))
	}
}

func TestEngineSurvivesStampWrap(t *testing.T) {
	// The cone, relevance and X-path stamps wrap around after 2^32
	// faults; an engine just below the wrap must search exactly like a
	// fresh one.
	sr, err := synth.Synthesize(must(rtl.NewCore("muxy").
		In("a", 2).In("b", 2).In("s", 1).Out("z", 2).
		Mux("m", 2, 2).
		Wire("a", "m.in0").Wire("b", "m.in1").Wire("s", "m.sel").Wire("m.out", "z").
		Build()))
	if err != nil {
		t.Fatal(err)
	}
	n := sr.Netlist
	fresh, err := newEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	old, err := newEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	old.coneEp, old.seenEp, old.relEp = ^uint32(0)-2, ^uint32(0)-2, ^uint32(0)-2
	for _, f := range n.Faults() {
		a, _ := fresh.search(f, 16)
		b, _ := old.search(f, 16)
		if a != b || string(fresh.assign) != string(old.assign) {
			t.Fatalf("fault %v: outcome %v assign %v after the wrap, want %v %v", f, b, old.assign, a, fresh.assign)
		}
	}
}

func TestStatsPercentagesEmpty(t *testing.T) {
	var s Stats
	if s.FaultCoverage() != 0 || s.TestEfficiency() != 0 {
		t.Error("zero-fault stats must report 0%")
	}
}

func TestDeterministic(t *testing.T) {
	n1 := fullAdder()
	n2 := fullAdder()
	r1, err := Generate(n1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Generate(n2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Patterns) != len(r2.Patterns) {
		t.Fatalf("nondeterministic vector count: %d vs %d", len(r1.Patterns), len(r2.Patterns))
	}
	for i := range r1.Patterns {
		for j := range r1.Patterns[i].PI {
			if r1.Patterns[i].PI[j] != r2.Patterns[i].PI[j] {
				t.Fatalf("pattern %d differs", i)
			}
		}
	}
}

// TestSearchPanicIsAnError makes one search of System 1's DISPLAY panic
// through searchHook, at one and at four workers. The searches run on
// fanout goroutines, where a panic would end the process; it must come
// back from generateOn as the same error at both counts. A panic in a
// search that four workers ran ahead and then dropped must not count:
// that run ends as one worker ends without any panic.
func TestSearchPanicIsAnError(t *testing.T) {
	sr, err := synth.Synthesize(systems.Display())
	if err != nil {
		t.Fatal(err)
	}
	n, faults, o := sr.Netlist, sr.Netlist.Faults(), (*Options)(nil).withDefaults()
	run := func(workers int, hook func(gate.Fault)) (*Result, error) {
		searchHook = hook
		defer func() { searchHook = nil }()
		return generateOn(n, faults, o, workers)
	}
	searchedAt := func(workers int) map[gate.Fault]bool {
		var mu sync.Mutex
		seen := map[gate.Fault]bool{}
		if _, err := run(workers, func(f gate.Fault) {
			mu.Lock()
			seen[f] = true
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	panicOn := func(target gate.Fault) func(gate.Fault) {
		return func(f gate.Fault) {
			if f == target {
				panic("boom")
			}
		}
	}
	serial, ahead := searchedAt(1), searchedAt(4)
	var committed, discarded []gate.Fault
	for _, f := range faults {
		if serial[f] {
			committed = append(committed, f)
		} else if ahead[f] {
			discarded = append(discarded, f)
		}
	}
	if len(committed) == 0 || len(discarded) == 0 {
		t.Fatalf("%d faults searched at one worker, %d searched ahead and dropped at four: need both", len(committed), len(discarded))
	}

	target := committed[len(committed)/2]
	want := fmt.Sprintf("atpg: searching fault %v panicked: boom\n", target)
	for _, workers := range []int{1, 4} {
		if _, err := run(workers, panicOn(target)); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%d workers: error %v, want one starting %q", workers, err, want)
		}
	}

	ref, err := run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(4, panicOn(discarded[0]))
	if err != nil {
		t.Errorf("a panic in the dropped search of %v failed the run: %v", discarded[0], err)
	} else if !reflect.DeepEqual(got, ref) {
		t.Errorf("a panic in the dropped search of %v changed the result", discarded[0])
	}
	t.Logf("%d searches at one worker; four workers ran %d more ahead and dropped them", len(committed), len(discarded))
}

package proptest

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/resil"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/systems"
)

func TestMaskWidths(t *testing.T) {
	if mask(3) != 0x7 {
		t.Fatalf("mask(3) = %#x", mask(3))
	}
	if mask(64) != ^uint64(0) || mask(70) != ^uint64(0) {
		t.Fatal("wide masks must saturate at 64 bits")
	}
}

func TestPathKindNames(t *testing.T) {
	if pathKind(true) != "justification" || pathKind(false) != "propagation" {
		t.Fatal("path kind names changed")
	}
}

func TestWindowApply(t *testing.T) {
	w := window{lo: 0, hi: 7}
	w, ok := w.apply(2, 5, 0, 3) // take bits 2..5 to 0..3
	if !ok || w.lo != 0 || w.hi != 3 || w.delta != -2 {
		t.Fatalf("apply: %+v ok=%v", w, ok)
	}
	if _, ok := (window{lo: 0, hi: 1}).apply(4, 7, 0, 3); ok {
		t.Fatal("disjoint slice must not keep a window")
	}
}

func TestCanonClamps(t *testing.T) {
	f, _ := preparedEval(t)
	ch := f.Chip
	name := ch.TestableCores()[0].Name
	got := canon(ch, map[string]int{name: -3})
	if got[name] != 0 {
		t.Fatalf("negative index clamps to 0, got %d", got[name])
	}
	got = canon(ch, map[string]int{name: 99})
	if got[name] != len(ch.TestableCores()[0].Versions)-1 {
		t.Fatalf("oversized index clamps to last version, got %d", got[name])
	}
}

// preparedEval returns a small evaluated chip for tamper tests.
func preparedEval(t *testing.T) (*core.Flow, *core.Evaluation) {
	t.Helper()
	ch, err := socgen.Generate(socgen.Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	vecs := map[string]int{}
	for _, c := range ch.Cores {
		vecs[c.Name] = 10
	}
	f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return f, e
}

func TestCheckScheduleRejectsTampering(t *testing.T) {
	f, e := preparedEval(t)
	ch := f.Chip

	if err := checkSchedule(ch, e); err != nil {
		t.Fatalf("untampered schedule rejected: %v", err)
	}

	e.TAT++
	if err := checkSchedule(ch, e); err == nil || !strings.Contains(err.Error(), "chip TAT") {
		t.Fatalf("inflated chip TAT not caught: %v", err)
	}
	e.TAT--

	saved := e.Sched.Cores
	e.Sched.Cores = append(append([]*sched.CoreSchedule(nil), saved...), saved[0])
	if err := checkSchedule(ch, e); err == nil {
		t.Fatal("duplicated core schedule not caught")
	}
	e.Sched.Cores = saved[:len(saved)-1]
	if err := checkSchedule(ch, e); err == nil {
		t.Fatal("missing core schedule not caught")
	}
	e.Sched.Cores = saved
}

// TestEqualEvaluationsComparesUntestableNets replaces one untestable net
// of an evaluation with another net, keeping the count, and requires
// EqualEvaluations to report the difference.
func TestEqualEvaluationsComparesUntestableNets(t *testing.T) {
	s1 := systems.System1()
	f, err := core.Prepare(s1, flowcmd.GenVectorOverride(s1))
	if err != nil {
		t.Fatal(err)
	}
	fch, err := resil.Inject(s1, resil.CutEdge{FromPort: "NUM", ToCore: "PREPROCESSOR", ToPort: "NUM"})
	if err != nil {
		t.Fatal(err)
	}
	de, err := f.Fork(fch).EvaluateDegradedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e := de.Evaluation
	un := e.Interconnect.Untestable
	if len(un) == 0 {
		t.Fatal("the cut left no untestable net to tamper with")
	}
	if err := EqualEvaluations(e, e); err != nil {
		t.Fatalf("evaluation differs from itself: %v", err)
	}
	ir := *e.Interconnect
	ir.Untestable = append([]soc.Net(nil), un...)
	for _, n := range fch.Nets {
		if n != un[0] {
			ir.Untestable[0] = n
			break
		}
	}
	tampered := *e
	tampered.Interconnect = &ir
	if err := EqualEvaluations(e, &tampered); err == nil {
		t.Fatalf("untestable net %v swapped for %v went unnoticed", un[0], ir.Untestable[0])
	}
}

func TestCheckLaddersRejectsDisorder(t *testing.T) {
	f, _ := preparedEval(t)
	ch := f.Chip
	var mutated bool
	for _, c := range ch.TestableCores() {
		if len(c.Versions) > 1 {
			c.Versions[0], c.Versions[1] = c.Versions[1], c.Versions[0]
			mutated = true
			break
		}
	}
	if !mutated {
		t.Skip("seed produced single-version ladders only")
	}
	if err := checkLadders(ch); err == nil {
		t.Fatal("swapped ladder order not caught")
	}
}

func TestNodeWidthLookups(t *testing.T) {
	ch, err := socgen.Generate(socgen.Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w := nodeWidth(ch, ccg.Node{Port: ch.PIs[0].Name}); w != ch.PIs[0].Width {
		t.Fatalf("PI width %d != %d", w, ch.PIs[0].Width)
	}
	if w := nodeWidth(ch, ccg.Node{Port: ch.POs[0].Name}); w != ch.POs[0].Width {
		t.Fatalf("PO width %d != %d", w, ch.POs[0].Width)
	}
	if nodeWidth(ch, ccg.Node{Port: "NOPE"}) != 0 {
		t.Fatal("unknown pin must report width 0")
	}
	c := ch.TestableCores()[0]
	in := c.RTL.Inputs()[0]
	if w := nodeWidth(ch, ccg.Node{Core: c.Name, Port: in.Name}); w != in.Width {
		t.Fatalf("core port width %d != %d", w, in.Width)
	}
	if nodeWidth(ch, ccg.Node{Core: "GHOST", Port: in.Name}) != 0 {
		t.Fatal("unknown core must report width 0")
	}
}

func TestShrinkPassesThroughGeneratedCoreCount(t *testing.T) {
	// Check succeeds on this seed, so Shrink finds nothing smaller that
	// fails and must return the chip's own core count.
	p := socgen.Params{Seed: 2}
	ch, err := socgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := Shrink(p); got.Cores != len(ch.TestableCores()) {
		t.Fatalf("Shrink on a passing seed returned cores=%d, want %d", got.Cores, len(ch.TestableCores()))
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

func TestTopologyStringUnknown(t *testing.T) {
	if s := socgen.Topology(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown topology prints %q", s)
	}
}

// TestCheckLargeChipSkipsEnumeration exercises the always-on battery on a
// chip whose ladder product exceeds the enumeration cap: the exhaustive
// invariants are skipped but replay and the improvement bound still run.
func TestCheckLargeChipSkipsEnumeration(t *testing.T) {
	st, err := Check(socgen.Params{Seed: 11, Cores: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 0 {
		t.Fatalf("enumeration ran (%d points) despite the ladder-product cap", st.Points)
	}
	if st.Replayed == 0 {
		t.Fatal("no path replayed on the large chip")
	}
}

package atpg

import (
	"slices"
	"testing"

	"repro/internal/gate"
	"repro/internal/rtl"
	"repro/internal/rtlgen"
	"repro/internal/synth"
	"repro/internal/systems"
)

// referenceImply is the full forward pass: it evaluates every line of the
// good and the faulty circuit from the engine's current assignment and
// fault. The incremental engine must agree with it after every imply.
func referenceImply(e *engine) (gv, fv []byte) {
	n, f := e.n, e.f
	gv = make([]byte, len(n.Gates))
	fv = make([]byte, len(n.Gates))
	ctlFault := false
	for i, c := range e.ctl {
		gv[c], fv[c] = e.assign[i], e.assign[i]
		ctlFault = ctlFault || c == f.Line
	}
	for id, g := range n.Gates {
		switch g.Type {
		case gate.Const0:
			gv[id], fv[id] = lo, lo
		case gate.Const1:
			gv[id], fv[id] = hi, hi
		}
	}
	// Stem fault on a controllable line: faulty value forced.
	if f.Branch < 0 && ctlFault {
		fv[f.Line] = f.Stuck
	}
	faninFv := func(id, branch int) byte {
		if f.Branch == branch && f.Line == id {
			return f.Stuck
		}
		return fv[n.Gates[id].Fanin[branch]]
	}
	order, err := n.Order()
	if err != nil {
		panic(err)
	}
	for _, id := range order {
		g := &n.Gates[id]
		var ga, gb, gc, fa, fb, fc byte
		switch len(g.Fanin) {
		case 3:
			gc, fc = gv[g.Fanin[2]], faninFv(id, 2)
			fallthrough
		case 2:
			gb, fb = gv[g.Fanin[1]], faninFv(id, 1)
			fallthrough
		case 1:
			ga, fa = gv[g.Fanin[0]], faninFv(id, 0)
		}
		gv[id] = eval3(g.Type, ga, gb, gc)
		fv[id] = eval3(g.Type, fa, fb, fc)
		if f.Branch < 0 && id == f.Line {
			fv[id] = f.Stuck
		}
	}
	return gv, fv
}

// chooser returns a choice in [0, k), or false when the input is spent.
type chooser func(k int) (int, bool)

func seededChooser(seed uint64) chooser {
	r := splitMix{seed}
	return func(k int) (int, bool) { return int(r.next() % uint64(k)), true }
}

func bytesChooser(b []byte) chooser {
	return func(k int) (int, bool) {
		if len(b) == 0 {
			return 0, false
		}
		v := int(b[0]) % k
		b = b[1:]
		return v, true
	}
}

// relevantClosure walks, on its own, the lines the search may read for
// fault f: the fault's forward cone through combinational gates, the
// fault site, and their transitive combinational fanin, which stops at
// PIs, DFF outputs and constants.
func relevantClosure(n *gate.Netlist, f gate.Fault) []bool {
	order, err := n.Order()
	if err != nil {
		panic(err)
	}
	rel := make([]bool, len(n.Gates))
	// A faulty constant keeps its value and a faulty DFF data input is
	// observed at capture: neither diverges a line.
	t := n.Gates[f.Line].Type
	rel[f.Line] = t != gate.Const0 && t != gate.Const1 && !(f.Branch >= 0 && t == gate.DFF)
	for _, id := range order {
		for _, in := range n.Gates[id].Fanin {
			rel[id] = rel[id] || rel[in]
		}
	}
	rel[n.FaultSite(f)] = true
	// In reverse evaluation order every fanout of a gate comes first.
	for i := len(order) - 1; i >= 0; i-- {
		if id := order[i]; rel[id] {
			for _, in := range n.Gates[id].Fanin {
				rel[in] = true
			}
		}
	}
	return rel
}

// checkImply runs an implication and compares every line the search may
// read with the full pass. The engine's relevant gates must be exactly
// the combinational gates of relevantClosure; no other line is read, so
// no other line is compared.
func checkImply(t testing.TB, e *engine) {
	t.Helper()
	e.imply()
	gv, fv := referenceImply(e)
	rel := relevantClosure(e.n, e.f)
	for id := range gv {
		if pos := e.topoPos[id]; pos >= 0 && rel[id] != (e.relevant[pos] == e.relEp) {
			t.Fatalf("%s fault %v: line %d (%s) relevant = %v, closure says %v",
				e.n.Name, e.f, id, e.n.Gates[id].Type, !rel[id], rel[id])
		}
		if rel[id] && (gv[id] != e.gv[id] || fv[id] != e.fv[id]) {
			t.Fatalf("%s fault %v assign %v: line %d (%s) good/faulty = %d/%d, full pass %d/%d",
				e.n.Name, e.f, e.assign, id, e.n.Gates[id].Type, e.gv[id], e.fv[id], gv[id], fv[id])
		}
	}
}

// drive puts the engine through up to steps random steps (reset to
// another fault, assign, flip, unassign, a bounded PODEM run, or an
// implication) and checks every implication against the full pass.
func drive(t testing.TB, e *engine, faults []gate.Fault, choose chooser, steps int) {
	t.Helper()
	for s := 0; s < steps; s++ {
		op, ok := choose(10)
		if !ok {
			break
		}
		ci, ok := choose(len(e.ctl))
		if !ok {
			break
		}
		switch {
		case op == 0:
			e.reset(faults[ci%len(faults)])
		case op <= 3 && e.assign[ci] == xx:
			v, ok := choose(2)
			if !ok {
				return
			}
			e.set(ci, byte(v))
		case op == 4 && e.assign[ci] != xx:
			e.set(ci, e.assign[ci]^1)
		case op == 5 && e.assign[ci] != xx:
			e.set(ci, xx)
		case op == 6:
			// PODEM may stop with changes queued but not implied.
			e.search(faults[ci%len(faults)], 2)
		default:
			checkImply(t, e)
		}
	}
	checkImply(t, e)
}

// faultKinds is the netlist's fault list plus the corner cases the
// incremental engine handles specially: stem faults on constant lines,
// branch faults into every mux select and every DFF data input.
func faultKinds(n *gate.Netlist) []gate.Fault {
	out := n.Faults()
	for id, g := range n.Gates {
		switch g.Type {
		case gate.Const0, gate.Const1:
			out = append(out, gate.Fault{Line: id, Branch: -1, Stuck: 0}, gate.Fault{Line: id, Branch: -1, Stuck: 1})
		case gate.Mux:
			out = append(out, gate.Fault{Line: id, Branch: 2, Stuck: 0}, gate.Fault{Line: id, Branch: 2, Stuck: 1})
		case gate.DFF:
			out = append(out, gate.Fault{Line: id, Branch: 0, Stuck: 0}, gate.Fault{Line: id, Branch: 0, Stuck: 1})
		}
	}
	return out
}

// kinds names every case kindOf tells apart.
var kinds = []string{"stem on PI", "stem on DFF output", "stem on constant", "stem on gate",
	"branch into DFF", "branch into mux select", "branch into gate"}

// kindOf names the case of f that the corpus test must cover.
func kindOf(n *gate.Netlist, f gate.Fault) string {
	t := n.Gates[f.Line].Type
	switch {
	case f.Branch < 0 && t == gate.Input:
		return "stem on PI"
	case f.Branch < 0 && t == gate.DFF:
		return "stem on DFF output"
	case f.Branch < 0 && (t == gate.Const0 || t == gate.Const1):
		return "stem on constant"
	case f.Branch < 0:
		return "stem on gate"
	case t == gate.DFF:
		return "branch into DFF"
	case t == gate.Mux && f.Branch == 2:
		return "branch into mux select"
	}
	return "branch into gate"
}

// randomNetlist builds a small netlist: PIs, DFFs, constants, then
// combinational gates over earlier lines, DFF data inputs from any line,
// and a few POs.
func randomNetlist(seed uint64) *gate.Netlist {
	r := splitMix{seed}
	pick := func(k int) int { return int(r.next() % uint64(k)) }
	n := &gate.Netlist{Name: "random"}
	var lines, dffs []int
	for i := 1 + pick(4); i > 0; i-- {
		lines = append(lines, n.Add(gate.Input))
	}
	for i := pick(3); i > 0; i-- {
		d := n.Add(gate.DFF, 0)
		dffs = append(dffs, d)
		lines = append(lines, d)
	}
	for i := pick(3); i > 0; i-- {
		lines = append(lines, n.Add(gate.Const0+gate.Type(pick(2))))
	}
	types := []gate.Type{gate.Buf, gate.Inv, gate.And, gate.Or, gate.Nand, gate.Nor, gate.Xor, gate.Xnor, gate.Mux, gate.Mux}
	for i := 2 + pick(30); i > 0; i-- {
		t := types[pick(len(types))]
		in := make([]int, t.FaninCount())
		for j := range in {
			in[j] = lines[pick(len(lines))]
		}
		lines = append(lines, n.Add(t, in...))
	}
	for _, d := range dffs {
		n.Gates[d].Fanin[0] = lines[pick(len(lines))]
	}
	n.MarkPO(lines[len(lines)-1], "z0")
	for i := pick(3); i > 0; i-- {
		n.MarkPO(lines[pick(len(lines))], "z")
	}
	return n
}

// TestImplyMatchesFullPass drives the incremental engine through random
// assign/flip/unassign/reset sequences on GCD, System 1's logic cores,
// generated RTL cores and random netlists, for every kind of fault site.
func TestImplyMatchesFullPass(t *testing.T) {
	var nets []*gate.Netlist
	cores := append(rtlgen.Many(8, 700), systems.GCD(), systems.CPU(), systems.Preprocessor(), systems.Display())
	if testing.Short() {
		cores = cores[:3]
	}
	for _, c := range cores {
		sr, err := synth.Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, sr.Netlist)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		nets = append(nets, randomNetlist(seed))
	}
	exercised := map[string]int{}
	for i, n := range nets {
		e, err := newEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		faults := faultKinds(n)
		// Every added corner case, and an even sample of the fault list
		// that still includes the first fault of each kind.
		listed := len(n.Faults())
		stride := max(1, listed/400)
		choose := seededChooser(uint64(i) + 1)
		for fi, f := range faults {
			k := kindOf(n, f)
			if fi < listed && fi%stride != 0 && exercised[k] > 0 {
				continue
			}
			exercised[k]++
			e.reset(f)
			checkImply(t, e)
			drive(t, e, faults, choose, 24)
		}
	}
	for _, k := range kinds {
		if exercised[k] == 0 {
			t.Errorf("no %q fault exercised", k)
		}
	}
	t.Logf("faults exercised by kind: %v", exercised)
}

// TestEveryBacktrackPoint checks the state PODEM leaves right after each
// backtrack of a real search, where the trail has just been undone to a
// decision's mark and the decision flipped. The netlists are those ATPG
// runs on for System 1's CPU, PREPROCESSOR and DISPLAY and System 2's
// GCD: each core's RTL synthesized, as core.Prepare does before ATPG.
// Every sampled fault is searched with backtrack limits 0, 1, 2, … up to
// the default, so each search stops right after one more flip than the
// last; implying from there must equal the full pass. The searches are
// PODEM alone, without the redundancy check, so that the faults it
// refutes still exercise PODEM's backtracks. Each search also
// stays within the trail bound: along the search path, a line's values
// change at most twice (DESIGN.md §11).
func TestEveryBacktrackPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("searches every sampled fault once per backtrack")
	}
	limit := (*Options)(nil).withDefaults().BacktrackLimit
	for _, n := range coreNetlists(t) {
		e, err := newEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		searched, flips := map[outcome]int{}, 0
		for _, f := range sampleKinds(n, 40) {
			for bt := 0; ; bt++ {
				e.reset(f)
				out, _ := e.podem(bt)
				checkImply(t, e)
				if len(e.trail) > 2*len(n.Gates) {
					t.Fatalf("%s fault %v, limit %d: trail holds %d entries for %d lines",
						n.Name, f, bt, len(e.trail), len(n.Gates))
				}
				if out != outAborted || bt == limit {
					searched[out]++
					break
				}
				flips++
			}
		}
		t.Logf("%s: %d flips checked; searches ended %d detected, %d untestable, %d aborted",
			n.Name, flips, searched[outDetected], searched[outUntestable], searched[outAborted])
		if searched[outUntestable] == 0 || searched[outAborted] == 0 {
			t.Errorf("%s: the sample needs untestable and aborted faults, got %v", n.Name, searched)
		}
	}
}

// coreNetlists synthesizes the cores ATPG runs on for System 1's CPU,
// PREPROCESSOR and DISPLAY and System 2's GCD, as core.Prepare does
// before ATPG.
func coreNetlists(t *testing.T) []*gate.Netlist {
	t.Helper()
	var nets []*gate.Netlist
	for _, c := range []*rtl.Core{systems.CPU(), systems.Preprocessor(), systems.Display(), systems.GCD()} {
		sr, err := synth.Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, sr.Netlist)
	}
	return nets
}

// sampleKinds returns an even sample of up to about perKind faults of
// each kind from faultKinds(n), kind by kind.
func sampleKinds(n *gate.Netlist, perKind int) []gate.Fault {
	byKind := map[string][]gate.Fault{}
	for _, f := range faultKinds(n) {
		k := kindOf(n, f)
		byKind[k] = append(byKind[k], f)
	}
	var out []gate.Fault
	for _, k := range kinds {
		faults := byKind[k]
		for i := 0; i < len(faults); i += max(1, len(faults)/perKind) {
			out = append(out, faults[i])
		}
	}
	return out
}

// relevantLines lists the lines of e's relevant set for its current
// fault: the relevant gates, the lines they read and the fault site.
func relevantLines(e *engine) []bool {
	in := make([]bool, len(e.n.Gates))
	in[e.site] = true
	for pos, id := range e.order {
		if e.relevant[pos] == e.relEp {
			in[id] = true
			for _, f := range e.n.Gates[id].Fanin {
				in[f] = true
			}
		}
	}
	return in
}

// TestSearchReadsOnlyRelevantLines checks that the search reads no line
// outside the fault's relevant set. Before each search, every other line
// of the all-X state is poisoned with 3, a value outside {0, 1, X}: a
// search that reads one, or evaluates a gate on one, ends differently or
// fails on the truth table. Each search must end as on a clean engine,
// with the same assignment and the same counts. The search starts with
// the redundancy check, which reads and writes the same values, so its
// verdict, outRefuted or a PODEM run, must match too, and the sample must
// hold faults of both. The netlists are those of TestEveryBacktrackPoint
// and the random netlists.
func TestSearchReadsOnlyRelevantLines(t *testing.T) {
	const poison = 3
	nets := coreNetlists(t)
	for seed := uint64(1); seed <= 40; seed++ {
		nets = append(nets, randomNetlist(seed))
	}
	limit := (*Options)(nil).withDefaults().BacktrackLimit
	fresh := func(n *gate.Netlist) *engine {
		e, err := newEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	search := func(e *engine, f gate.Fault) (out outcome, ef effort, failure any) {
		defer func() { failure = recover() }()
		out, ef = e.search(f, limit)
		return out, ef, nil
	}
	searched, refuted := 0, 0
	for _, n := range nets {
		clean, dirty := fresh(n), fresh(n)
		allX := slices.Clone(dirty.gvX)
		for _, f := range sampleKinds(n, 40) {
			dirty.reset(f) // marks f's relevant set
			for id, r := range relevantLines(dirty) {
				if !r {
					dirty.gvX[id] = poison
				}
			}
			want, wantEffort := clean.search(f, limit)
			got, gotEffort, failure := search(dirty, f)
			copy(dirty.gvX, allX)
			if failure != nil {
				t.Fatalf("%s fault %v: the search on poisoned lines failed: %v", n.Name, f, failure)
			}
			if got != want || string(dirty.assign) != string(clean.assign) || gotEffort != wantEffort {
				t.Fatalf("%s fault %v: search on poisoned lines ended %v with assign %v and effort %+v, clean %v %v %+v",
					n.Name, f, got, dirty.assign, gotEffort, want, clean.assign, wantEffort)
			}
			searched++
			if got == outRefuted {
				refuted++
			}
		}
	}
	t.Logf("%d searches on %d netlists read only relevant lines; the check refuted %d of the faults", searched, len(nets), refuted)
	if refuted == 0 || refuted == searched {
		t.Errorf("the check refuted %d of %d faults: the sample needs refuted faults and PODEM runs", refuted, searched)
	}
}

// FuzzImply checks incremental implication against the full pass on
// small random netlists driven by arbitrary step sequences.
func FuzzImply(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 1, 2, 9, 4, 1, 9, 5, 0, 9})
	f.Add(uint64(7), []byte{6, 2, 9, 1, 1, 1, 9, 0, 4, 9, 4, 2, 9})
	f.Add(uint64(42), []byte{1, 0, 1, 1, 1, 1, 2, 2, 1, 3, 3, 1, 9, 5, 0, 9, 6, 1})
	f.Fuzz(func(t *testing.T, seed uint64, steps []byte) {
		n := randomNetlist(seed)
		e, err := newEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		faults := faultKinds(n)
		choose := bytesChooser(steps)
		fi, ok := choose(len(faults))
		if !ok {
			return
		}
		e.reset(faults[fi])
		checkImply(t, e)
		drive(t, e, faults, choose, len(steps))
	})
}

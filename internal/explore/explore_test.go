package explore

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/rtl"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/systems"
	"repro/internal/trans"
)

// The flow is expensive (full ATPG); share one across the test binary and
// reset the selection in each test.
var shared *core.Flow

func flow(t testing.TB) *core.Flow {
	t.Helper()
	if shared == nil {
		f, err := core.Prepare(systems.System1(), nil)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		shared = f
	}
	reset(shared)
	return shared
}

func reset(f *core.Flow) {
	sel := map[string]int{}
	for _, c := range f.Chip.TestableCores() {
		sel[c.Name] = 0
	}
	f.SelectVersions(sel)
	f.ForcedMuxes = nil
}

func TestEnumerateDesignSpace(t *testing.T) {
	f := flow(t)
	points, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for _, c := range f.Chip.TestableCores() {
		want *= len(c.Versions)
	}
	if len(points) != want {
		t.Fatalf("enumerated %d points, want %d", len(points), want)
	}
	// Figure 10's qualitative shape: the cheapest point is the slowest,
	// and some more expensive point is much faster.
	first, last := points[0], points[len(points)-1]
	if first.ChipCells > last.ChipCells {
		t.Error("points not sorted by area")
	}
	minTAT := MinTATPoint(points)
	if minTAT.TAT >= first.TAT {
		t.Errorf("min TAT %d should beat the min-area point's TAT %d", minTAT.TAT, first.TAT)
	}
	// The paper reports ~4.5x between design points 1 and 18; demand at
	// least 2x on our substrate.
	if first.TAT < 2*minTAT.TAT {
		t.Errorf("TAT range too flat: min-area %d vs min-TAT %d", first.TAT, minTAT.TAT)
	}
}

func TestParetoFrontMonotone(t *testing.T) {
	f := flow(t)
	points, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	front := Pareto(points)
	if len(front) < 2 {
		t.Fatalf("Pareto front has %d points", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].TAT >= front[i-1].TAT {
			t.Errorf("front not strictly improving: %d then %d", front[i-1].TAT, front[i].TAT)
		}
		if front[i].ChipCells < front[i-1].ChipCells {
			t.Errorf("front not sorted by area")
		}
	}
}

// Table 1's headline effect: the all-minimum-latency configuration is not
// necessarily the minimum-TAT configuration (design point 17 vs 18).
func TestMinLatencyNotAlwaysMinTAT(t *testing.T) {
	f := flow(t)
	points, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	minTAT := MinTATPoint(points)
	var allFast Point
	found := false
	for _, p := range points {
		fast := true
		for _, c := range f.Chip.TestableCores() {
			if p.Selection[c.Name] != len(c.Versions)-1 {
				fast = false
			}
		}
		if fast {
			allFast = p
			found = true
		}
	}
	if !found {
		t.Fatal("all-minimum-latency point missing")
	}
	if minTAT.TAT > allFast.TAT {
		t.Errorf("MinTATPoint %d worse than all-fast %d", minTAT.TAT, allFast.TAT)
	}
	t.Logf("min-TAT point %s TAT=%d vs all-fast %s TAT=%d",
		minTAT.Label(), minTAT.TAT, allFast.Label(), allFast.TAT)
}

// samePoints asserts two enumerations are identical: same length, same
// order, and every per-point number equal.
func samePoints(t *testing.T, want, got []Point) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("point count differs: %d vs %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Label() != g.Label() || w.ChipCells != g.ChipCells || w.TAT != g.TAT {
			t.Fatalf("point %d differs: %s (%d cells, TAT %d) vs %s (%d cells, TAT %d)",
				i, w.Label(), w.ChipCells, w.TAT, g.Label(), g.ChipCells, g.TAT)
		}
		if w.Eval.ChipDFTCells() != g.Eval.ChipDFTCells() || w.Eval.TAT != g.Eval.TAT ||
			w.Eval.TransCells != g.Eval.TransCells || w.Eval.MuxCells != g.Eval.MuxCells ||
			w.Eval.CtrlCells != g.Eval.CtrlCells || w.Eval.BISTCycles != g.Eval.BISTCycles {
			t.Fatalf("point %d evaluation differs", i)
		}
	}
}

// The parallel worker pool must produce bit-identical, identically
// ordered points to the serial path at any worker count.
func TestEnumerateParallelMatchesSerial(t *testing.T) {
	f := flow(t)
	serial, err := EnumerateCtx(context.Background(), f, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := EnumerateCtx(context.Background(), f, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		samePoints(t, serial, par)
	}
	// The default entry point (GOMAXPROCS workers) matches too.
	def, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, serial, def)
}

// Enumeration must not leave the chip mutated to the last-enumerated
// selection (the historic bug): selection, forced muxes, and the
// evaluation of the current point are all unchanged afterwards.
func TestEnumerateLeavesFlowUnchanged(t *testing.T) {
	f := flow(t)
	f.SelectVersions(map[string]int{"CPU": 1})
	f.ForcedMuxes = append(f.ForcedMuxes, core.ForcedMux{Core: "DISPLAY", Port: "D", Input: true})
	before := f.CurrentSelection()
	e0, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumerateCtx(context.Background(), f, Options{}); err != nil {
		t.Fatal(err)
	}
	after := f.CurrentSelection()
	for name, idx := range before {
		if after[name] != idx {
			t.Errorf("core %s: selection changed %d -> %d across Enumerate", name, idx, after[name])
		}
	}
	if len(f.ForcedMuxes) != 1 {
		t.Errorf("forced muxes changed: %v", f.ForcedMuxes)
	}
	e1, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if e1.TAT != e0.TAT || e1.ChipDFTCells() != e0.ChipDFTCells() {
		t.Errorf("observable state drifted: TAT %d -> %d, cells %d -> %d",
			e0.TAT, e1.TAT, e0.ChipDFTCells(), e1.ChipDFTCells())
	}
}

// Starting at the min-TAT point, every remaining upgrade ladder fails to
// help — the historic walk accepted them anyway (its pick loop maximized
// ΔTAT without requiring it positive and never rechecked the real TAT)
// and burned the area budget making TAT worse. No accepted step may
// increase the TAT.
func TestImproveNeverAcceptsWorseningMove(t *testing.T) {
	f := flow(t)
	points, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	minTAT := MinTATPoint(points)
	f.SelectVersions(minTAT.Selection)
	e0, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ImproveCtx(context.Background(), f, MinimizeTAT, e0.ChipDFTCells()+10000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := e0.TAT
	for _, s := range res.Steps {
		if s.TAT >= last {
			t.Errorf("accepted step %+v did not reduce TAT (%d -> %d)", s, last, s.TAT)
		}
		last = s.TAT
	}
	if res.Final.TAT > e0.TAT {
		t.Errorf("walk worsened TAT: %d -> %d", e0.TAT, res.Final.TAT)
	}
}

// TestImproveRunsToConvergence walks a chip that needs more than 64
// accepted moves (71 on the 144-core socgen chain of seed 1998) and
// requires the walk to end only when no move improves the TAT: a second
// walk from where the first stopped accepts nothing.
func TestImproveRunsToConvergence(t *testing.T) {
	ch, err := socgen.Generate(socgen.Params{Seed: 1998, Cores: 144, Topology: socgen.Chain})
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Prepare(ch, flowcmd.GenVectorOverride(ch))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ImproveCtx(context.Background(), f, MinimizeTAT, 1<<30, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) <= 64 {
		t.Errorf("walk stopped after %d moves at TAT %d; this chip needs more than 64", len(res.Steps), res.Final.TAT)
	}
	again, err := ImproveCtx(context.Background(), f, MinimizeTAT, 1<<30, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Steps) != 0 {
		t.Errorf("walk stopped before converging: %d more moves lower the TAT from %d to %d",
			len(again.Steps), res.Final.TAT, again.Final.TAT)
	}
}

func TestImproveMinimizeTAT(t *testing.T) {
	f := flow(t)
	e0, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ImproveCtx(context.Background(), f, MinimizeTAT, e0.ChipDFTCells()+200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.TAT >= e0.TAT {
		t.Errorf("improvement did not reduce TAT: %d -> %d", e0.TAT, res.Final.TAT)
	}
	if res.Final.ChipDFTCells() > e0.ChipDFTCells()+200 {
		t.Errorf("area budget violated: %d > %d", res.Final.ChipDFTCells(), e0.ChipDFTCells()+200)
	}
	if len(res.Steps) == 0 {
		t.Error("no improvement steps recorded")
	}
}

func TestImproveMinimizeArea(t *testing.T) {
	f := flow(t)
	e0, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// Ask for a TAT halfway between min-area and zero: the selector should
	// meet it with a modest area increase.
	target := e0.TAT * 2 / 3
	res, err := ImproveCtx(context.Background(), f, MinimizeArea, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.TAT > target {
		t.Errorf("TAT target missed: %d > %d", res.Final.TAT, target)
	}
	// Every step should have been productive.
	for _, s := range res.Steps {
		if s.Core != "" && s.DeltaTAT < 0 {
			t.Errorf("step %+v increased TAT", s)
		}
	}
}

func TestTightBudgetKeepsMinArea(t *testing.T) {
	f := flow(t)
	e0, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ImproveCtx(context.Background(), f, MinimizeTAT, e0.ChipDFTCells(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.ChipDFTCells() > e0.ChipDFTCells() {
		t.Errorf("zero headroom budget exceeded: %d > %d", res.Final.ChipDFTCells(), e0.ChipDFTCells())
	}
}

func TestCandidatesCostOrdering(t *testing.T) {
	f := flow(t)
	e, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// Objective (i) weighting: sorted by TAT improvement.
	byTAT := Candidates(f, e, Cost{W1: 1, W2: 0})
	for i := 1; i < len(byTAT); i++ {
		if byTAT[i].DeltaTAT > byTAT[i-1].DeltaTAT {
			t.Errorf("w1=1 ordering broken at %d", i)
		}
	}
	// Objective (ii) weighting: sorted by (negated) area growth — the
	// cheapest upgrade scores highest under C = -ΔA... the paper picks the
	// *minimum* C with positive ΔTAT; with W2=-1 the sort surfaces it.
	byArea := Candidates(f, e, Cost{W1: 0, W2: -1})
	for i := 1; i < len(byArea); i++ {
		if byArea[i].DeltaArea < byArea[i-1].DeltaArea {
			t.Errorf("area ordering broken at %d", i)
		}
	}
	if len(byTAT) == 0 {
		t.Fatal("no candidates at the min-area selection")
	}
	// The estimate must see the biggest win where the schedule leans
	// hardest; flipping that core really reduces TAT.
	pick := byTAT[0]
	f.SelectVersions(map[string]int{pick.Core: pick.Version})
	e2, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if pick.DeltaTAT > 0 && e2.TAT >= e.TAT {
		t.Errorf("estimated ΔTAT %d for %s but actual TAT %d -> %d", pick.DeltaTAT, pick.Core, e.TAT, e2.TAT)
	}
}

// Pareto no longer relies on the caller having area-sorted the points.
func TestParetoUnsortedAndTiedInput(t *testing.T) {
	pts := []Point{
		{ChipCells: 30, TAT: 50},
		{ChipCells: 10, TAT: 100},
		{ChipCells: 30, TAT: 40}, // ties on area with the 50-TAT point
		{ChipCells: 20, TAT: 100},
		{ChipCells: 20, TAT: 80},
		{ChipCells: 40, TAT: 40}, // dominated by (30, 40)
	}
	front := Pareto(pts)
	want := []Point{{ChipCells: 10, TAT: 100}, {ChipCells: 20, TAT: 80}, {ChipCells: 30, TAT: 40}}
	if len(front) != len(want) {
		t.Fatalf("front = %v, want %v", front, want)
	}
	for i := range want {
		if front[i].ChipCells != want[i].ChipCells || front[i].TAT != want[i].TAT {
			t.Errorf("front[%d] = (%d, %d), want (%d, %d)",
				i, front[i].ChipCells, front[i].TAT, want[i].ChipCells, want[i].TAT)
		}
	}
	// The input slice must be untouched.
	if pts[0].ChipCells != 30 || pts[0].TAT != 50 {
		t.Error("Pareto reordered its input")
	}
}

func TestMinTATPointTies(t *testing.T) {
	pts := []Point{
		{ChipCells: 20, TAT: 40},
		{ChipCells: 10, TAT: 40}, // same TAT, less area: must win
		{ChipCells: 5, TAT: 90},
	}
	best := MinTATPoint(pts)
	if best.ChipCells != 10 || best.TAT != 40 {
		t.Errorf("MinTATPoint = (%d, %d), want (10, 40)", best.ChipCells, best.TAT)
	}
	one := MinTATPoint(pts[2:])
	if one.ChipCells != 5 || one.TAT != 90 {
		t.Errorf("single-point MinTATPoint = (%d, %d), want (5, 90)", one.ChipCells, one.TAT)
	}
}

// muxFallbackCells must fall back to the default width for cores with no
// input ports and for unknown cores.
func TestMuxFallbackCellsZeroInputCore(t *testing.T) {
	f := &core.Flow{Chip: &soc.Chip{
		Name: "toy",
		Cores: []*soc.Core{
			{Name: "NOIN", RTL: &rtl.Core{Name: "noin", Ports: []rtl.Port{{Name: "O", Dir: rtl.Out, Width: 4}}}},
			{Name: "WIDE", RTL: &rtl.Core{Name: "wide", Ports: []rtl.Port{{Name: "I", Dir: rtl.In, Width: 12}}}},
		},
	}}
	if got := muxFallbackCells(f, "NOIN"); got != 8 {
		t.Errorf("zero-input core: got %d, want default 8", got)
	}
	if got := muxFallbackCells(f, "MISSING"); got != 8 {
		t.Errorf("unknown core: got %d, want default 8", got)
	}
	if got := muxFallbackCells(f, "WIDE"); got != 12 {
		t.Errorf("widest input: got %d, want 12", got)
	}
}

// A transparency pair that disappears in the next version contributes
// nothing to the estimate — the old heuristic assumed it got faster
// (latency 1) and produced bogus deltas.
func TestLatencyDeltaSkipsMissingPairs(t *testing.T) {
	ab := [2]string{"A", "B"}
	cd := [2]string{"C", "D"}
	usage := map[[2]string]int{ab: 3, cd: 5}
	cur := map[[2]string]int{ab: 4, cd: 6}
	next := map[[2]string]int{ab: 1} // cd vanished
	if got := latencyDelta(usage, cur, next); got != 3*(4-1) {
		t.Errorf("latencyDelta = %d, want %d (missing pair must be skipped)", got, 3*(4-1))
	}
	// Pair unusable in the current version: nothing to improve.
	if got := latencyDelta(usage, map[[2]string]int{cd: 6}, next); got != 0 {
		t.Errorf("latencyDelta = %d, want 0 when the pair has no current latency", got)
	}
}

func TestEnumerateMaxPointsPrefix(t *testing.T) {
	f := flow(t)
	full, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := EnumerateCtx(context.Background(), f, Options{MaxPoints: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 5 {
		t.Fatalf("MaxPoints=5 evaluated %d points", len(capped))
	}
	// The capped run evaluates the first 5 selections of the fixed
	// generation order; sorted output must be a subset of the full space.
	byLabel := map[string]Point{}
	for _, p := range full {
		byLabel[p.Label()] = p
	}
	for _, p := range capped {
		fp, ok := byLabel[p.Label()]
		if !ok {
			t.Fatalf("capped point %s not in the full enumeration", p.Label())
		}
		if fp.TAT != p.TAT || fp.ChipCells != p.ChipCells {
			t.Fatalf("capped point %s diverged: %d/%d vs %d/%d",
				p.Label(), p.TAT, p.ChipCells, fp.TAT, fp.ChipCells)
		}
	}
	// A cap above the product changes nothing.
	uncapped, err := EnumerateCtx(context.Background(), f, Options{MaxPoints: len(full) + 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(uncapped) != len(full) {
		t.Fatalf("over-cap run evaluated %d points, want %d", len(uncapped), len(full))
	}
}

func TestSelectionCountOverflowSafe(t *testing.T) {
	// 64 cores x 4 versions each = 2^128 combinations: the capped count
	// must return the cap instead of overflowing.
	mk := func(n int) []*soc.Core {
		cores := make([]*soc.Core, n)
		for i := range cores {
			cores[i] = &soc.Core{Versions: make([]*trans.Version, 4)}
		}
		return cores
	}
	if got := selectionCount(mk(64), 1000); got != 1000 {
		t.Fatalf("capped count = %d, want 1000", got)
	}
	if got := selectionCount(mk(3), 0); got != 64 {
		t.Fatalf("uncapped count = %d, want 64", got)
	}
	if got := selectionCount(nil, 10); got != 1 {
		t.Fatalf("no-core count = %d, want 1", got)
	}
}

// TestEnumerateWindowUnionMatchesFull splits the selection space into
// contiguous windows with First/Count and checks the union reproduces
// the full enumeration exactly — the property sharded sweeps rest on.
func TestEnumerateWindowUnionMatchesFull(t *testing.T) {
	f := flow(t)
	full, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	space := SelectionSpace(f, 0)
	if space != len(full) {
		t.Fatalf("SelectionSpace = %d, enumeration has %d points", space, len(full))
	}
	wantByLabel := map[string]Point{}
	for _, p := range full {
		wantByLabel[p.Label()] = p
	}
	for _, parts := range []int{2, 3, 5} {
		got := map[string]Point{}
		for i := 0; i < parts; i++ {
			lo := i * space / parts
			hi := (i + 1) * space / parts
			pts, err := EnumerateCtx(context.Background(), f, Options{First: lo, Count: hi - lo, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != hi-lo {
				t.Fatalf("window [%d,%d): %d points", lo, hi, len(pts))
			}
			for _, p := range pts {
				if _, dup := got[p.Label()]; dup {
					t.Fatalf("windows overlap at %s", p.Label())
				}
				got[p.Label()] = p
			}
		}
		if len(got) != len(wantByLabel) {
			t.Fatalf("%d windows: union has %d points, want %d", parts, len(got), len(wantByLabel))
		}
		for label, w := range wantByLabel {
			g := got[label]
			if g.TAT != w.TAT || g.ChipCells != w.ChipCells {
				t.Fatalf("%d windows: point %s diverged (%d/%d vs %d/%d)",
					parts, label, g.ChipCells, g.TAT, w.ChipCells, w.TAT)
			}
		}
	}
}

// TestEnumerateWindowBounds: windows clamp to the space; a window
// starting beyond it is empty, not an error.
func TestEnumerateWindowBounds(t *testing.T) {
	f := flow(t)
	space := SelectionSpace(f, 0)
	pts, err := EnumerateCtx(context.Background(), f, Options{First: space + 10, Count: 5})
	if err != nil || len(pts) != 0 {
		t.Fatalf("beyond-space window: %d points, err %v", len(pts), err)
	}
	pts, err = EnumerateCtx(context.Background(), f, Options{First: space - 2, Count: 100})
	if err != nil || len(pts) != 2 {
		t.Fatalf("overhanging window: %d points, err %v", len(pts), err)
	}
	// Count <= 0 means "to the end".
	pts, err = EnumerateCtx(context.Background(), f, Options{First: space - 3})
	if err != nil || len(pts) != 3 {
		t.Fatalf("open-ended window: %d points, err %v", len(pts), err)
	}
}

// TestEnumerateSkipAndObserver: Skip removes indices from evaluation and
// output; Observer sees every evaluated point with its global index.
func TestEnumerateSkipAndObserver(t *testing.T) {
	f := flow(t)
	space := SelectionSpace(f, 0)
	var mu sync.Mutex
	seen := map[int]string{}
	pts, err := EnumerateCtx(context.Background(), f, Options{
		Skip: func(gi int) bool { return gi%2 == 1 },
		Observer: func(gi int, p Point) {
			mu.Lock()
			seen[gi] = p.Label()
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantN := (space + 1) / 2
	if len(pts) != wantN || len(seen) != wantN {
		t.Fatalf("skip-odd run: %d points, %d observed, want %d", len(pts), len(seen), wantN)
	}
	for gi := range seen {
		if gi%2 == 1 {
			t.Fatalf("observer saw skipped index %d", gi)
		}
	}
	// Spot-check attribution: each observed label must be the selection a
	// one-point window at that global index evaluates.
	for _, gi := range []int{0, 2, (space - 1) / 2 * 2} {
		one, err := EnumerateCtx(context.Background(), f, Options{First: gi, Count: 1, Workers: 1})
		if err != nil || len(one) != 1 {
			t.Fatalf("window [%d,%d): %d points, err %v", gi, gi+1, len(one), err)
		}
		if seen[gi] != one[0].Label() {
			t.Fatalf("index %d observed as %s, window says %s", gi, seen[gi], one[0].Label())
		}
	}
}

// estimateDeltaTAT is the reference for candidateSteps' ΔTAT estimate: it
// scans every path of the schedule for core c's transparency steps alone,
// one core at a time, where candidateSteps tallies every core in one
// sweep.
func estimateDeltaTAT(e *core.Evaluation, c *soc.Core) int {
	usage := map[[2]string]int{}
	countPath := func(p []ccg.Step) {
		for _, s := range p {
			if s.Edge.Kind != ccg.Trans {
				continue
			}
			from := e.Graph.Nodes[s.Edge.From]
			to := e.Graph.Nodes[s.Edge.To]
			if from.Core != c.Name {
				continue
			}
			usage[[2]string{from.Port, to.Port}]++
		}
	}
	for _, cs := range e.Sched.Cores {
		for _, in := range cs.Inputs {
			if in.Path != nil {
				countPath(in.Path.Steps)
			}
		}
		for _, out := range cs.Outputs {
			if out.Path != nil {
				countPath(out.Path.Steps)
			}
		}
	}
	return latencyDelta(usage, pairLatencies(c.Versions[c.Selected]), pairLatencies(c.Versions[c.Selected+1]))
}

// TestCandidateStepsMatchPerCoreReference requires every core's
// candidateSteps ΔTAT to equal the per-core reference scan, at the
// initial selection and after each accepted move of a TAT walk, on
// System 1, System 2 and the seeded socgen corpus (seeds 1-6, every
// topology).
func TestCandidateStepsMatchPerCoreReference(t *testing.T) {
	chips := []*soc.Chip{systems.System1(), systems.System2()}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, topo := range socgen.Topologies() {
			ch, err := socgen.Generate(socgen.Params{Seed: seed, Topology: topo})
			if err != nil {
				t.Fatalf("generate seed %d %s: %v", seed, topo, err)
			}
			chips = append(chips, ch)
		}
	}
	ctx := context.Background()
	compared, nonzero, moves := 0, 0, 0
	for _, ch := range chips {
		f, err := core.Prepare(ch, flowcmd.GenVectorOverride(ch))
		if err != nil {
			t.Fatalf("%s: prepare: %v", ch.Name, err)
		}
		walk, err := ImproveCtx(ctx, f, MinimizeTAT, 1<<30, Options{})
		if err != nil {
			t.Fatalf("%s: walk: %v", ch.Name, err)
		}
		// Replay the walk from the start, checking before every move and
		// after the last one.
		muxes := f.ForcedMuxes
		reset(f)
		lat := latencyTables{} // one memo across the replay, as in a walk
		for i := 0; ; i++ {
			e, err := f.EvaluateSelection(f.CurrentSelection())
			if err != nil {
				t.Fatalf("%s: evaluate after %d moves: %v", ch.Name, i, err)
			}
			for _, s := range candidateSteps(f, e, lat) {
				c, _ := f.Chip.CoreByName(s.Core)
				if want := estimateDeltaTAT(e, c); s.DeltaTAT != want {
					t.Fatalf("%s after %d moves: core %s ΔTAT %d, reference %d", ch.Name, i, s.Core, s.DeltaTAT, want)
				}
				compared++
				if s.DeltaTAT != 0 {
					nonzero++
				}
			}
			if i == len(walk.Steps) {
				break
			}
			moves++
			if s := walk.Steps[i]; s.MuxOn != "" {
				f.ForcedMuxes = muxes[:len(f.ForcedMuxes)+1]
			} else {
				f.SelectVersions(map[string]int{s.Core: s.Version})
			}
		}
	}
	if nonzero == 0 {
		t.Fatalf("all %d compared estimates were 0", compared)
	}
	t.Logf("%d estimates compared over %d chips and %d moves, %d nonzero", compared, len(chips), moves, nonzero)
}

// TestEnumerateReturnsLowestFailingIndex: when evaluations at two global
// indices fail, EnumerateCtx returns the lower index's error at any
// worker count, even when the higher one fails first in time. The
// failures are Observer panics, which the evaluation recovers into an
// error naming the selection.
func TestEnumerateReturnsLowestFailingIndex(t *testing.T) {
	f := flow(t)
	const lo, hi = 5, 11
	cores := f.Chip.TestableCores()
	loSel := fmt.Sprint(selectionsAt(cores, lo, 1)[0])
	hiSel := fmt.Sprint(selectionsAt(cores, hi, 1)[0])
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := EnumerateCtx(context.Background(), f, Options{
			Workers: workers,
			Observer: func(gi int, p Point) {
				switch gi {
				case lo:
					time.Sleep(20 * time.Millisecond)
					panic("observer at the lower index")
				case hi:
					panic("observer at the higher index")
				}
			},
		})
		if err == nil {
			t.Fatalf("%d workers: no error", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, "evaluating "+loSel+" panicked: observer at the lower index") {
			t.Errorf("%d workers: error does not name index %d's selection %s:\n%.200s", workers, lo, loSel, msg)
		}
		if strings.Contains(msg, hiSel) {
			t.Errorf("%d workers: error names index %d's selection %s", workers, hi, hiSel)
		}
	}
}

// Package explore implements the chip-level design-space exploration of
// Section 5: exhaustive enumeration of core-version combinations (the 18
// design points of Figure 10 and Table 1) and the iterative-improvement
// selector of Section 5.2, which replaces one core at a time with its next
// more expensive version using the cost function
//
//	C = w1 × ΔTAT + w2 × ΔA
//
// and degenerates to system-level test multiplexers when a mux becomes
// cheaper than any remaining version upgrade.
//
// Enumeration is one index loop, Visit: it evaluates the design points at
// a list of global indices of the fixed enumeration order, fanning out
// over internal/fanout's bounded workers so the |versions|^n tree uses
// every CPU. EnumerateCtx visits the whole (capped) space, and a shard of
// a sharded sweep visits the indices it still owes. The points, and the
// error of a failed enumeration, are identical at any worker count. Each
// Visit or ImproveCtx call evaluates through a core.DeltaEvaluator of its
// own, the explorer's only evaluation cache: a selection that differs
// from a recently evaluated one in a single core is re-evaluated
// incrementally, bit-identical to a full core.Flow.EvaluateSelection.
package explore

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/soc"
	"repro/internal/trans"
)

// Point is one evaluated design point.
type Point struct {
	Selection map[string]int // core -> version index
	ChipCells int            // chip-level DFT overhead (trans + mux + ctrl)
	TAT       int
	Eval      *core.Evaluation
}

// Label formats the selection compactly (e.g. "CPU:1 DISPLAY:3 ...").
func (p Point) Label() string {
	var names []string
	for n := range p.Selection {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:V%d", n, p.Selection[n]+1)
	}
	return s
}

// Options tunes EnumerateCtx.
type Options struct {
	// Workers bounds EnumerateCtx's evaluation worker pool; <= 0 selects
	// runtime.GOMAXPROCS(0). The result is identical at any worker count.
	Workers int
	// MaxPoints caps how many selections EnumerateCtx generates (<= 0 means
	// every combination). Generation order is fixed, so a capped run
	// evaluates a deterministic prefix of the full enumeration — the only
	// way to sweep a chip whose |versions|^n product is astronomical. A
	// cap above math.MaxInt32 does not bound such a chip (SelectionSpace).
	MaxPoints int
}

// selectionAt decodes global index gi of the enumeration order into its
// selection: the digits of gi in the mixed radix of the cores' ladder
// lengths, first core most significant (it varies slowest). The caller
// has checked gi against selectionCount.
func selectionAt(cores []*soc.Core, gi int) map[string]int {
	sel := make(map[string]int, len(cores))
	for i := len(cores) - 1; i >= 0; i-- {
		n := len(cores[i].Versions)
		sel[cores[i].Name] = gi % n
		gi /= n
	}
	return sel
}

// SelectionSpace reports how many design points the flow's enumeration
// covers under a MaxPoints cap (<= 0 means uncapped): the global indices
// [0, space) that EnumerateCtx visits and shards partition. A space of
// more than math.MaxInt32 points, capped or not, is an error: at about a
// millisecond per point that is weeks of work, and its index list would
// not fit in memory. Such a chip needs a smaller cap.
func SelectionSpace(f *core.Flow, maxPoints int) (int, error) {
	n := selectionCount(f.Chip.TestableCores(), maxPoints)
	if n <= math.MaxInt32 {
		return n, nil
	}
	if maxPoints > 0 {
		return 0, fmt.Errorf("explore: MaxPoints %d leaves %s more than %d design points, too many to enumerate; lower MaxPoints", maxPoints, f.Chip.Name, math.MaxInt32)
	}
	return 0, fmt.Errorf("explore: %s has more than %d design points, too many to enumerate; set MaxPoints", f.Chip.Name, math.MaxInt32)
}

// selectionCount returns the product of the cores' ladder lengths capped
// at max (max <= 0 means math.MaxInt, so an uncapped product saturates
// instead of wrapping). It is 0 when some ladder is empty.
func selectionCount(cores []*soc.Core, max int) int {
	if max <= 0 {
		max = math.MaxInt
	}
	total := 1
	for _, c := range cores {
		n := len(c.Versions)
		if n == 0 {
			return 0
		}
		if total > max/n {
			total = max // past the cap; keep looking for an empty ladder
			continue
		}
		total *= n
	}
	return total
}

// Visit evaluates the design points at the given global indices of the
// enumeration order and hands each to fn with its index, before Visit
// returns. The point at index gi selects, for each testable core, the
// core's digit of gi in the mixed radix of the ladder lengths, first core
// most significant; a MaxPoints-capped enumeration is the prefix
// [0, MaxPoints). Evaluation fans out over workers goroutines (<= 0
// selects runtime.GOMAXPROCS(0)) through one delta evaluator of its own,
// so fn may be called concurrently. The chip's own version selection is
// never touched.
//
// An index outside the design space is refused before anything is
// evaluated. A panicking evaluation, fn included, is recovered into an
// error instead of killing the process. When evaluations fail, the error
// is the one of the earliest failing entry of indices, at any worker
// count. Cancellation is checked between indices and inside each
// evaluation; a cancelled Visit returns ctx.Err().
func Visit(ctx context.Context, f *core.Flow, workers int, indices []int, fn func(gi int, p Point)) error {
	cores := f.Chip.TestableCores()
	space := selectionCount(cores, 0)
	for _, gi := range indices {
		if gi < 0 || gi >= space {
			return fmt.Errorf("explore: index %d outside the %d-point design space of %s", gi, space, f.Chip.Name)
		}
	}
	sp := obs.Start(nil, "explore/enumerate")
	defer sp.End()
	ev := core.NewDeltaEvaluator(f)
	cPoints := obs.C("explore.points_evaluated")
	prog := progress.Start("explore/enumerate", int64(len(indices)),
		"explore.points_evaluated", "explore.cache_hits", "explore.cache_misses")
	defer prog.End()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(indices)), 1)
	obs.G("explore.parallel_workers").Set(int64(workers))
	err := fanout.Each(ctx, len(indices), workers, func(i int) (err error) {
		sel := selectionAt(cores, indices[i])
		defer func() {
			if r := recover(); r != nil {
				obs.C("explore.eval_panics").Inc()
				err = fmt.Errorf("explore: evaluating %v panicked: %v\n%s", sel, r, debug.Stack())
			}
		}()
		e, err := ev.EvaluateSelectionCtx(ctx, sel)
		if err != nil {
			return err
		}
		cPoints.Inc()
		prog.Step(1)
		fn(indices[i], Point{Selection: sel, ChipCells: e.ChipDFTCells(), TAT: e.TAT, Eval: e})
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		obs.C("explore.cancelled").Inc()
		return cerr
	}
	return err
}

// EnumerateCtx evaluates every combination of core versions, or the
// first o.MaxPoints of them, returning the points sorted by chip overhead
// then TAT (the x-axis ordering of Figure 10). It is Visit over
// [0, SelectionSpace) on o.Workers goroutines. Points, their values and
// their order are identical at any worker count: each point is placed by
// its index and sorted from that index order.
//
// A cancelled enumeration returns the points completed so far — sorted
// exactly as a full run sorts, so they form a consistent (if partial)
// design-space sample — together with ctx.Err(). A failed one returns
// Visit's error and no points.
func EnumerateCtx(ctx context.Context, f *core.Flow, o Options) ([]Point, error) {
	space, err := SelectionSpace(f, o.MaxPoints)
	if err != nil {
		return nil, err
	}
	indices := make([]int, space)
	for i := range indices {
		indices[i] = i
	}
	points := make([]Point, space)
	err = Visit(ctx, f, o.Workers, indices, func(gi int, p Point) { points[gi] = p })
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	// A cancelled run leaves holes: keep the evaluated points, in order.
	done := points[:0]
	for _, p := range points {
		if p.Eval != nil {
			done = append(done, p)
		}
	}
	return sortPoints(done), err
}

// sortPoints orders points by chip overhead then TAT, in place.
func sortPoints(points []Point) []Point {
	sort.Slice(points, func(i, j int) bool {
		if points[i].ChipCells != points[j].ChipCells {
			return points[i].ChipCells < points[j].ChipCells
		}
		return points[i].TAT < points[j].TAT
	})
	return points
}

// Pareto filters points to the non-dominated area/TAT front. Input order
// does not matter: the points are sorted by area then TAT into a copy
// before the scan, so unsorted or tied slices yield the same front.
func Pareto(points []Point) []Point {
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].ChipCells != sorted[j].ChipCells {
			return sorted[i].ChipCells < sorted[j].ChipCells
		}
		return sorted[i].TAT < sorted[j].TAT
	})
	var out []Point
	best := int(^uint(0) >> 1)
	for _, p := range sorted {
		if p.TAT < best {
			best = p.TAT
			out = append(out, p)
		}
	}
	return out
}

// MinTATPoint returns the point with the smallest TAT (ties: smaller
// area). This is Table 1's design point 17 — not necessarily the
// all-minimum-latency configuration.
func MinTATPoint(points []Point) Point {
	best := points[0]
	for _, p := range points[1:] {
		if p.TAT < best.TAT || (p.TAT == best.TAT && p.ChipCells < best.ChipCells) {
			best = p
		}
	}
	return best
}

// Objective selects which constraint drives the iterative improvement.
type Objective int

// Objectives (i) and (ii) of Section 5.
const (
	MinimizeTAT  Objective = iota // area budget given
	MinimizeArea                  // TAT budget given
)

// Step is one accepted move of the iterative improvement.
type Step struct {
	Core      string // upgraded core ("" for a test-mux insertion)
	Version   int    // new version index
	MuxOn     string // "CORE.port" when a test mux was placed
	DeltaTAT  int
	DeltaArea int
	TAT       int
	ChipCells int
}

// Result is the outcome of ImproveCtx.
type Result struct {
	Steps     []Step
	Final     *core.Evaluation
	Selection map[string]int
}

// muxFallbackCells is the cost threshold of Section 5.2: once every
// remaining version upgrade costs more than a system-level test mux, the
// mux wins.
func muxFallbackCells(f *core.Flow, coreName string) int {
	c, ok := f.Chip.CoreByName(coreName)
	if !ok {
		return 8
	}
	w := 0
	for _, p := range c.RTL.Inputs() {
		if p.Width > w {
			w = p.Width
		}
	}
	if w == 0 {
		w = 8
	}
	return w
}

// Cost is the paper's replacement cost function C = w1·ΔTAT + w2·ΔA
// (Section 5.2). The two objectives correspond to (w1=1, w2=0) and
// (w1=0, w2=1); arbitrary weights let a user bias the walk anywhere in
// between.
type Cost struct {
	W1, W2 float64
}

// Eval scores a candidate replacement.
func (c Cost) Eval(deltaTAT, deltaArea int) float64 {
	return c.W1*float64(deltaTAT) + c.W2*float64(deltaArea)
}

// candidateSteps lists each core's next-version replacement with its
// estimated ΔTAT and exact ΔA — the raw material both Candidates and the
// ImproveCtx walk rank, kept in one place so the two cannot drift.
//
// The ΔTAT estimate is the paper's latency-number heuristic: count how
// often each transparency pair of the core is used in the current
// schedule, weight by the pair's latency, and compare against the next
// version's latency for the same input/output pair. One sweep over the
// schedule (pairUsage) tallies the pairs of every core at once.
//
// Each core's current version is the one e evaluated (e.Selection). A
// core e resolved to −1, opaque in a degraded evaluation, has no version
// to replace and proposes nothing.
func candidateSteps(f *core.Flow, e *core.Evaluation, lat latencyTables) []Step {
	usage := pairUsage(e)
	var out []Step
	for _, c := range f.Chip.TestableCores() {
		v := e.Selection[c.Name]
		if v < 0 || v+1 >= len(c.Versions) {
			continue
		}
		cur, next := c.Versions[v], c.Versions[v+1]
		out = append(out, Step{
			Core:      c.Name,
			Version:   v + 1,
			DeltaTAT:  latencyDelta(usage[c.Name], lat.of(cur), lat.of(next)),
			DeltaArea: next.Area.Cells() - cur.Area.Cells(),
		})
	}
	obs.C("explore.moves_proposed").Add(int64(len(out)))
	return out
}

// Candidates lists each core's next-version replacement with its
// estimated ΔTAT, its ΔA, and the weighted cost — the raw material of the
// Section 5.2 loop, exposed for callers that drive their own policy.
func Candidates(f *core.Flow, e *core.Evaluation, cost Cost) []Step {
	out := candidateSteps(f, e, latencyTables{})
	sort.Slice(out, func(i, j int) bool {
		return cost.Eval(out[i].DeltaTAT, out[i].DeltaArea) > cost.Eval(out[j].DeltaTAT, out[j].DeltaArea)
	})
	return out
}

// ImproveCtx runs the iterative improvement from the current selection.
// For MinimizeTAT, budget is the maximum chip-level DFT overhead in
// cells; for MinimizeArea, budget is the maximum TAT in cycles. No field
// of o applies: the walk is inherently sequential and evaluates through
// a delta evaluator of its own. Every accepted move
// strictly reduces the TAT — candidates whose estimated gain does not
// materialize are rejected, never applied.
//
// Cancellation is checked before each improvement move and inside each
// evaluation. A cancelled walk returns the moves accepted so far (a
// valid, if unfinished, improvement trajectory — the flow's selection
// reflects every accepted move) together with ctx.Err().
func ImproveCtx(ctx context.Context, f *core.Flow, obj Objective, budget int, o Options) (*Result, error) {
	root := obs.Start(nil, "explore/improve")
	defer root.End()
	ev := core.NewDeltaEvaluator(f)
	prog := progress.Start("explore/improve", 0,
		"explore.moves_accepted", "explore.moves_rejected", "explore.cache_hits", "explore.cache_misses")
	defer prog.End()
	cAccepted := obs.C("explore.moves_accepted")
	cRejected := obs.C("explore.moves_rejected")
	e, err := ev.EvaluateSelectionCtx(ctx, f.CurrentSelection())
	if err != nil {
		return nil, err
	}
	res := &Result{Final: e}
	lat := latencyTables{}
	// iterate is one improvement move; it reports stop=true when the walk
	// is finished. The closure keeps the per-iteration span balanced over
	// the many exit paths.
	iterate := func() (stop bool, err error) {
		it := obs.Start(root, "explore/iter")
		defer it.End()
		obs.C("explore.iterations").Inc()
		if obj == MinimizeArea && e.TAT <= budget {
			return true, nil // TAT constraint met
		}
		// Candidate upgrades that promise a TAT gain (and, under an area
		// budget, still fit it), best first per the objective's weighting.
		var cands []Step
		for _, c := range candidateSteps(f, e, lat) {
			if c.DeltaTAT <= 0 {
				continue
			}
			if obj == MinimizeTAT && e.ChipDFTCells()+c.DeltaArea > budget {
				continue
			}
			cands = append(cands, c)
		}
		switch obj {
		case MinimizeTAT:
			// w1=1, w2=0: largest TAT improvement first.
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].DeltaTAT > cands[j].DeltaTAT })
		case MinimizeArea:
			// w1=0, w2=1: cheapest upgrade first.
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].DeltaArea < cands[j].DeltaArea })
		}
		// Section 5.2 fallback: when the best upgrade is pricier than a
		// system-level test mux (or nothing is left), mux the most
		// critical input of the core dominating the TAT.
		if len(cands) == 0 || cands[0].DeltaArea > muxFallbackCells(f, cands[0].Core) {
			step, ok, err := placeCriticalMux(f, e)
			if err != nil {
				return true, err
			}
			if !ok && len(cands) == 0 {
				return true, nil // nothing left to do
			}
			if ok {
				e2, err := ev.EvaluateSelectionCtx(ctx, e.Selection)
				if err != nil {
					return true, err
				}
				overBudget := obj == MinimizeTAT && e2.ChipDFTCells() > budget
				if e2.TAT >= e.TAT || overBudget {
					// The mux made nothing better (or blew the budget):
					// take it back and fall through to the upgrades.
					f.ForcedMuxes = f.ForcedMuxes[:len(f.ForcedMuxes)-1]
					cRejected.Inc()
				} else {
					step.DeltaTAT = e.TAT - e2.TAT
					step.TAT = e2.TAT
					step.ChipCells = e2.ChipDFTCells()
					res.Steps = append(res.Steps, step)
					cAccepted.Inc()
					e = e2
					res.Final = e
					return false, nil
				}
			}
		}
		// Try upgrades best-estimate first and accept the first one that
		// actually improves the TAT; the estimate is a heuristic, so a
		// move that fails to improve is rejected, not applied.
		for _, c := range cands {
			trial := maps.Clone(e.Selection)
			trial[c.Core] = c.Version
			e2, err := ev.EvaluateSelectionCtx(ctx, trial)
			if err != nil {
				return true, err
			}
			if e2.TAT >= e.TAT || (obj == MinimizeTAT && e2.ChipDFTCells() > budget) {
				cRejected.Inc()
				continue
			}
			f.SelectVersions(map[string]int{c.Core: c.Version})
			res.Steps = append(res.Steps, Step{
				Core:      c.Core,
				Version:   c.Version,
				DeltaTAT:  e.TAT - e2.TAT,
				DeltaArea: c.DeltaArea,
				TAT:       e2.TAT,
				ChipCells: e2.ChipDFTCells(),
			})
			cAccepted.Inc()
			e = e2
			res.Final = e
			return false, nil
		}
		return true, nil
	}
	// Unbounded on purpose: every accepted move strictly lowers the TAT,
	// a non-negative integer, so the walk ends on its own.
	for {
		if ctx.Err() != nil {
			break
		}
		prog.Step(1)
		stop, err := iterate()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return nil, err
		}
		if stop {
			break
		}
	}
	res.Selection = f.CurrentSelection()
	res.Final = e
	if cerr := ctx.Err(); cerr != nil {
		obs.C("explore.cancelled").Inc()
		return res, cerr
	}
	return res, nil
}

// pairUsage counts, per core, how often each of its transparency
// (input, output) pairs is traversed by the paths of e's schedule: every
// Trans step of every input and output path, bucketed by the core of the
// step's source node.
func pairUsage(e *core.Evaluation) map[string]map[[2]string]int {
	usage := map[string]map[[2]string]int{}
	countPath := func(p *ccg.PathResult) {
		if p == nil {
			return
		}
		for _, s := range p.Steps {
			if s.Edge.Kind != ccg.Trans {
				continue
			}
			from := e.Graph.Nodes[s.Edge.From]
			u := usage[from.Core]
			if u == nil {
				u = map[[2]string]int{}
				usage[from.Core] = u
			}
			u[[2]string{from.Port, e.Graph.Nodes[s.Edge.To].Port}]++
		}
	}
	for _, cs := range e.Sched.Cores {
		for _, in := range cs.Inputs {
			countPath(in.Path)
		}
		for _, out := range cs.Outputs {
			countPath(out.Path)
		}
	}
	return usage
}

// latencyDelta weighs per-pair usage counts against the current and next
// latency tables. A pair absent from either table is skipped: with no
// current latency there is nothing to improve, and a pair that disappears
// in the next version cannot be assumed to have gotten faster.
func latencyDelta(usage, cur, next map[[2]string]int) int {
	delta := 0
	for pair, n := range usage {
		c, ok1 := cur[pair]
		nx, ok2 := next[pair]
		if !ok1 || !ok2 {
			continue
		}
		delta += n * (c - nx)
	}
	return delta
}

// latencyTables memoizes pairLatencies per version for one walk. The
// tables live here, keyed by the version, not in trans.Version:
// resil.SlowTransparency copies versions by value, and a table carried
// along would keep the latencies the copy scales.
type latencyTables map[*trans.Version]map[[2]string]int

// of returns v's (input, output) -> lowest latency table.
func (t latencyTables) of(v *trans.Version) map[[2]string]int {
	m, ok := t[v]
	if !ok {
		m = pairLatencies(v)
		t[v] = m
	}
	return m
}

func pairLatencies(v *trans.Version) map[[2]string]int {
	out := map[[2]string]int{}
	for _, p := range v.JustPairs() {
		key := [2]string{p.In, p.Out}
		if cur, ok := out[key]; !ok || p.Latency < cur {
			out[key] = p.Latency
		}
	}
	for _, p := range v.PropPairs() {
		key := [2]string{p.In, p.Out}
		if cur, ok := out[key]; !ok || p.Latency < cur {
			out[key] = p.Latency
		}
	}
	return out
}

// placeCriticalMux adds a forced test mux on the most critical input of
// the core contributing the most to the global TAT.
func placeCriticalMux(f *core.Flow, e *core.Evaluation) (Step, bool, error) {
	var worst *struct {
		core string
		port string
	}
	worstTAT, worstArr := -1, -1
	for _, cs := range e.Sched.Cores {
		if cs.TAT < worstTAT {
			continue
		}
		for _, in := range cs.Inputs {
			if in.AddedMux {
				continue // already muxed
			}
			if cs.TAT > worstTAT || in.Arrival > worstArr {
				worstTAT, worstArr = cs.TAT, in.Arrival
				worst = &struct {
					core string
					port string
				}{cs.Core, in.Port}
			}
		}
	}
	if worst == nil || worstArr <= 1 {
		return Step{}, false, nil
	}
	for _, fm := range f.ForcedMuxes {
		if fm.Core == worst.core && fm.Port == worst.port {
			return Step{}, false, nil // already placed
		}
	}
	f.ForcedMuxes = append(f.ForcedMuxes, core.ForcedMux{Core: worst.core, Port: worst.port, Input: true})
	return Step{MuxOn: worst.core + "." + worst.port}, true, nil
}

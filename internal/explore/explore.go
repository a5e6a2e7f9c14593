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
// Enumeration is evaluated by a bounded worker pool, so the |versions|^n
// tree uses every CPU; the output is identical at any worker count. Every
// evaluation goes through a core.DeltaEvaluator, the explorer's only
// evaluation cache: a selection that differs from a recently evaluated
// one in a single core is re-evaluated incrementally, bit-identical to a
// full core.Flow.EvaluateSelection.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ccg"
	"repro/internal/core"
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

// Options tunes the explorer.
type Options struct {
	// Workers bounds EnumerateCtx's evaluation worker pool; <= 0 selects
	// runtime.GOMAXPROCS(0). The result is identical at any worker count.
	Workers int
	// Cache is the delta evaluator every evaluation goes through. It must
	// be bound to the explored flow; an evaluator over any other flow is
	// an error. Nil gives the call a private evaluator. Sharing one across
	// calls over the same flow lets them reuse its recent bases.
	Cache *core.DeltaEvaluator
	// MaxPoints caps how many selections EnumerateCtx generates (<= 0 means
	// every combination). Generation order is fixed, so a capped run
	// evaluates a deterministic prefix of the full enumeration — the only
	// way to sweep a chip whose |versions|^n product is astronomical.
	MaxPoints int
	// First offsets the enumeration: generation starts at global index
	// First of the (MaxPoints-capped) enumeration order instead of 0.
	// The mixed-radix odometer is fast-forwarded, so a deep window costs
	// O(window), not O(First + window). Out-of-range values clamp.
	First int
	// Count limits how many selections are generated from First (<= 0
	// means through the end of the capped space). First/Count windows of
	// one enumeration tile it exactly: the concatenation of [0,k), [k,m),
	// [m,total) is the full enumeration — the shard partitioning contract.
	Count int
	// Skip, when non-nil, drops individual global indices from the window
	// without evaluating them (checkpoint resume: work finished by an
	// earlier attempt). Skipped indices appear in neither the returned
	// points nor Observer calls.
	Skip func(globalIndex int) bool
	// Observer, when non-nil, is called once per completed evaluation with
	// the point's global enumeration index, before EnumerateCtx returns.
	// It may be called concurrently from worker goroutines.
	Observer func(globalIndex int, p Point)
}

// evaluator returns the delta evaluator a call over f evaluates through:
// o.Cache, or a private one when o.Cache is nil.
func (o Options) evaluator(f *core.Flow) (*core.DeltaEvaluator, error) {
	if o.Cache == nil {
		return core.NewDeltaEvaluator(f), nil
	}
	if o.Cache.Flow() != f {
		return nil, fmt.Errorf("explore: the evaluator is bound to another flow (chip %q) than the explored one (chip %q): one evaluator serves one prepared flow",
			o.Cache.Flow().Chip.Name, f.Chip.Name)
	}
	return o.Cache, nil
}

// selectionsAt lists the count core-version combinations starting at
// global index start of the fixed enumeration order (the first core
// varies slowest). start is decomposed into mixed-radix odometer digits
// (first core most significant), so a window deep in the space costs
// O(count). The caller bounds start+count by selectionCount; generation
// also stops at the odometer's natural end. A core with an empty version
// ladder yields no combinations.
func selectionsAt(cores []*soc.Core, start, count int) []map[string]int {
	if count <= 0 {
		return nil
	}
	idx := make([]int, len(cores))
	rem := start
	for i := len(cores) - 1; i >= 0; i-- {
		n := len(cores[i].Versions)
		if n == 0 {
			return nil
		}
		idx[i] = rem % n
		rem /= n
	}
	if rem > 0 {
		return nil // start beyond the end of the space
	}
	out := make([]map[string]int, 0, count)
	for {
		sel := make(map[string]int, len(cores))
		for i, c := range cores {
			sel[c.Name] = idx[i]
		}
		out = append(out, sel)
		if len(out) == count {
			break
		}
		k := len(cores) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(cores[k].Versions) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return out
}

// SelectionSpace reports how many design points the flow's enumeration
// covers under a MaxPoints cap (<= 0 means uncapped) — the global index
// space that Options.First/Count windows partition.
func SelectionSpace(f *core.Flow, maxPoints int) int {
	return selectionCount(f.Chip.TestableCores(), maxPoints)
}

// selectionCount returns min(product of ladder lengths, max) without
// overflowing (max <= 0 means uncapped; 0 is returned only for an empty
// ladder somewhere).
func selectionCount(cores []*soc.Core, max int) int {
	total := 1
	for _, c := range cores {
		n := len(c.Versions)
		if n == 0 {
			return 0
		}
		if max > 0 && total > max/n {
			return max // product already exceeds the cap; stop multiplying
		}
		total *= n
	}
	if max > 0 && total > max {
		return max
	}
	return total
}

// EnumerateCtx evaluates every combination of core versions (or the
// window o selects), returning the points sorted by chip overhead then
// TAT (the x-axis ordering of Figure 10). Evaluation runs on a worker
// pool; the chip's own version selection is never touched. Points, their
// values and their order are identical at any worker count: selections
// are generated in one deterministic order, evaluated selection-pure,
// placed by index, and sorted from that index order.
//
// Cancellation is checked between selections and inside each evaluation;
// a cancelled enumeration returns the points completed so far — sorted
// exactly as a full run sorts, so they form a consistent (if partial)
// design-space sample — together with ctx.Err(). A panicking evaluation
// is recovered into an error instead of killing the process.
func EnumerateCtx(ctx context.Context, f *core.Flow, o Options) ([]Point, error) {
	sp := obs.Start(nil, "explore/enumerate")
	defer sp.End()
	ev, err := o.evaluator(f)
	if err != nil {
		return nil, err
	}
	cPoints := obs.C("explore.points_evaluated")
	cores := f.Chip.TestableCores()
	space := selectionCount(cores, o.MaxPoints)
	first := o.First
	if first < 0 {
		first = 0
	}
	if first > space {
		first = space
	}
	count := space - first
	if o.Count > 0 && o.Count < count {
		count = o.Count
	}
	sels := selectionsAt(cores, first, count)
	prog := progress.Start("explore/enumerate", int64(len(sels)),
		"explore.points_evaluated", "explore.cache_hits", "explore.cache_misses")
	defer prog.End()
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sels) {
		workers = len(sels)
	}
	if workers < 1 {
		workers = 1
	}
	obs.G("explore.parallel_workers").Set(int64(workers))
	points := make([]Point, len(sels))
	done := make([]bool, len(sels))
	evalAt := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				obs.C("explore.eval_panics").Inc()
				err = fmt.Errorf("explore: evaluating %v panicked: %v\n%s", sels[i], r, debug.Stack())
			}
		}()
		gi := first + i
		if o.Skip != nil && o.Skip(gi) {
			prog.Step(1)
			return nil
		}
		e, err := ev.EvaluateSelectionCtx(ctx, sels[i])
		if err != nil {
			return err
		}
		points[i] = Point{
			Selection: sels[i],
			ChipCells: e.ChipDFTCells(),
			TAT:       e.TAT,
			Eval:      e,
		}
		done[i] = true
		cPoints.Inc()
		prog.Step(1)
		if o.Observer != nil {
			o.Observer(gi, points[i])
		}
		return nil
	}
	// Force the lazily built rtl name indexes into existence before the
	// workers share them read-only.
	for _, c := range f.Chip.Cores {
		c.RTL.Lookup(c.RTL.Name)
	}
	var (
		firstErr error
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(sels) || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := evalAt(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		obs.C("explore.cancelled").Inc()
		return sortPoints(gather(points, done)), cerr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Skipped indices left holes; gather is a no-op copy when none were.
	return sortPoints(gather(points, done)), nil
}

// gather keeps the completed points in selection order.
func gather(points []Point, done []bool) []Point {
	var out []Point
	for i := range points {
		if done[i] {
			out = append(out, points[i])
		}
	}
	return out
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
func candidateSteps(f *core.Flow, e *core.Evaluation, lat latencyTables) []Step {
	usage := pairUsage(e)
	var out []Step
	for _, c := range f.Chip.TestableCores() {
		if c.Selected+1 >= len(c.Versions) {
			continue
		}
		cur := c.Versions[c.Selected].Area
		next := c.Versions[c.Selected+1].Area
		out = append(out, Step{
			Core:      c.Name,
			Version:   c.Selected + 1,
			DeltaTAT:  latencyDelta(usage[c.Name], lat.of(c.Versions[c.Selected]), lat.of(c.Versions[c.Selected+1])),
			DeltaArea: next.Cells() - cur.Cells(),
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
// cells; for MinimizeArea, budget is the maximum TAT in cycles. Of o only
// Cache applies; the walk is inherently sequential. Every accepted move
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
	ev, err := o.evaluator(f)
	if err != nil {
		return nil, err
	}
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
				e2, err := ev.EvaluateSelectionCtx(ctx, f.CurrentSelection())
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
			trial := f.CurrentSelection()
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

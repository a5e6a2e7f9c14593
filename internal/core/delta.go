// Delta evaluation: re-evaluating a selection that differs from an
// already-evaluated base in a single core without rebuilding the CCG or
// re-scheduling the whole chip. This is the explorer's hot loop — both
// enumeration neighbours and improvement steps change one core at a
// time — and the mechanism behind the ROADMAP's "incremental
// re-evaluation" item.
//
// # Invalidation model
//
// Swapping core c's transparency version only changes CCG edges that run
// from c's input nodes to c's output nodes. Everything whose shortest
// paths avoid those edges is untouched, and the affected region is an
// over-approximation computed with two BFS sweeps over the base graph:
//
//   - fwd: nodes reachable FROM c's outputs. A justification search
//     (PIs -> X.in) can only change if its target is fwd-marked.
//   - bwd: nodes that can reach c's inputs. An observation search
//     (X.out -> POs) can only change if its source is bwd-marked.
//
// A core is affected when any of its inputs is fwd-marked or any of its
// outputs is bwd-marked. Affected cores are recomputed exactly;
// unaffected ones reuse the base schedule and replay their recorded test
// muxes so the graph evolves edge-for-edge as a full run would. The
// interconnect plan is not reused: its two whole-graph sweeps cost less
// than working out which nets a flip could affect. The Finder's
// (arrival, node) settle order makes search results over unmutated
// regions bit-identical across the splice, so a delta evaluation returns
// the same numbers AND the same schedule signature as
// Flow.EvaluateSelection — a property the proptest differential harness
// checks across the whole socgen corpus.
//
// Anything that threatens that guarantee (a recomputed core inserting
// different muxes than the base did, a disabled core, a stale forced-mux
// set, a failed splice) falls back to a full evaluation instead.
package core

import (
	"context"
	"sync"

	"repro/internal/ccg"
	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/sched"
)

// DeltaEvaluator evaluates selections against a small registry of cached
// base evaluations, re-running only the work a single-core version flip
// invalidates. It is safe for concurrent use; results are plain
// Evaluations, bit-identical to Flow.EvaluateSelection. It is the
// explorer's only evaluation cache: every request counts one
// explore.cache_hits (an exact base match, returned as is) or one
// explore.cache_misses (a computed result).
type DeltaEvaluator struct {
	f *Flow

	// AdoptCandidates controls whether every full or delta evaluation
	// becomes a new base (the default, right for explorer walks where
	// each accepted candidate seeds the next neighbourhood). Benchmarks
	// pin a single base with Rebase and turn this off to measure the
	// pure delta path.
	AdoptCandidates bool

	// crippleInvalidation is a test hook: it skips the invalidation BFS
	// so only the changed core is recomputed. The differential harness
	// uses it to prove the delta-vs-full equivalence check actually
	// catches a stale-invalidation bug.
	crippleInvalidation bool

	mu    sync.Mutex
	bases map[string]*deltaBase
	order []string // LRU, most recently used last
	stats DeltaStats
}

// DeltaStats counts how a delta evaluator's requests were served. The
// same counts feed the obs registry (explore.cache_hits, core.delta_*),
// but obs is a process-global that may be disabled; these are
// per-evaluator and always on, which is what tests and benchmarks want
// to assert against.
type DeltaStats struct {
	Hits      int // exact base registry hits
	Deltas    int // served by the incremental path
	Fallbacks int // had a 1-diff base but punted to a full evaluation
	Fulls     int // no usable base: full evaluation
}

// maxBases bounds the base registry (LRU eviction). Exploration walks
// stay near a frontier, so a handful of bases catches almost every
// single-core neighbour.
const maxBases = 16

type deltaBase struct {
	sel      map[string]int
	eval     *Evaluation
	pristine int       // edge count before scheduling muxes: the splice point
	forced   cell.Area // forced-mux area at build time
	muxes    []ForcedMux
}

// NewDeltaEvaluator returns a delta evaluator over f.
func NewDeltaEvaluator(f *Flow) *DeltaEvaluator {
	return &DeltaEvaluator{f: f, AdoptCandidates: true, bases: map[string]*deltaBase{}}
}

// Flow returns the flow this evaluator is bound to.
func (d *DeltaEvaluator) Flow() *Flow { return d.f }

// Stats returns a snapshot of how requests have been served so far.
func (d *DeltaEvaluator) Stats() DeltaStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// EvaluateSelectionCtx evaluates sel, reusing a cached base that differs
// in at most one core when one exists and falling back to a full
// Flow.EvaluateSelectionCtx otherwise. The result is bit-identical to
// the full evaluation either way.
func (d *DeltaEvaluator) EvaluateSelectionCtx(ctx context.Context, sel map[string]int) (*Evaluation, error) {
	sel = d.f.canonSelection(sel)
	key := d.f.SelectionKey(sel)

	d.mu.Lock()
	if b, ok := d.bases[key]; ok && d.muxesCurrent(b) {
		d.touch(key)
		d.stats.Hits++
		d.mu.Unlock()
		obs.C("explore.cache_hits").Inc()
		return b.eval, nil
	}
	obs.C("explore.cache_misses").Inc()
	var base *deltaBase
	var changed string
	for i := len(d.order) - 1; i >= 0; i-- { // most recent base first
		b := d.bases[d.order[i]]
		if !d.muxesCurrent(b) {
			continue
		}
		if n, c := diffCores(b.sel, sel); n == 1 {
			base, changed = b, c
			break
		}
	}
	d.mu.Unlock()

	if base != nil {
		e, pristine, err := d.deltaEvaluate(ctx, base, changed, sel)
		if err != nil {
			return nil, err
		}
		if e != nil {
			obs.C("core.delta_evaluations").Inc()
			d.mu.Lock()
			d.stats.Deltas++
			d.mu.Unlock()
			if d.AdoptCandidates {
				d.adopt(key, sel, e, pristine, base.forced)
			}
			return e, nil
		}
		obs.C("core.delta_fallbacks").Inc()
		d.mu.Lock()
		d.stats.Fallbacks++
		d.mu.Unlock()
	}

	e, pristine, forced, err := d.f.evaluateFull(ctx, sel)
	if err != nil {
		return nil, err
	}
	if base == nil {
		d.mu.Lock()
		d.stats.Fulls++
		d.mu.Unlock()
	}
	d.adopt(key, sel, e, pristine, forced)
	return e, nil
}

// Rebase fully evaluates sel and pins it as a base, returning the
// evaluation. Benchmarks call it once outside the timed loop so every
// timed candidate exercises exactly the delta path.
func (d *DeltaEvaluator) Rebase(ctx context.Context, sel map[string]int) (*Evaluation, error) {
	sel = d.f.canonSelection(sel)
	e, pristine, forced, err := d.f.evaluateFull(ctx, sel)
	if err != nil {
		return nil, err
	}
	d.adopt(d.f.SelectionKey(sel), sel, e, pristine, forced)
	return e, nil
}

// deltaEvaluate runs the incremental path against base. A nil evaluation
// with a nil error means "cannot do this incrementally, run the full
// path" — correctness never depends on the caller's fallback, only
// speed does.
func (d *DeltaEvaluator) deltaEvaluate(ctx context.Context, b *deltaBase, changed string, sel map[string]int) (*Evaluation, int, error) {
	f := d.f
	ch := f.Chip
	c, ok := ch.CoreByName(changed)
	if !ok || c.Memory || c.Disabled != "" {
		return nil, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	root := obs.Start(nil, "evaluate/delta")
	defer root.End()

	bg := b.eval.Graph
	fwd := make([]bool, len(bg.Nodes))
	bwd := make([]bool, len(bg.Nodes))
	if !d.crippleInvalidation {
		markReach(bg, fwd, bwd, changed)
	}

	affected := map[string]bool{changed: true}
	for i, n := range bg.Nodes {
		if n.Core == "" || n.Core == changed {
			continue
		}
		if (n.Kind == ccg.CoreIn && fwd[i]) || (n.Kind == ccg.CoreOut && bwd[i]) {
			affected[n.Core] = true
		}
	}

	ng := bg.CloneWithVersion(b.pristine, c, c.VersionAt(sel[changed]))
	if ng == nil {
		return nil, 0, nil
	}
	pristine := ng.EdgeCount()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	baseCS := make(map[string]*sched.CoreSchedule, len(b.eval.Sched.Cores))
	for _, cs := range b.eval.Sched.Cores {
		baseCS[cs.Core] = cs
	}

	s := &sched.Result{}
	fi := ccg.GetFinder()
	defer ccg.PutFinder(fi)
	for _, cc := range ch.TestableCores() {
		if cc.Disabled != "" {
			return nil, 0, nil // full Schedule reports this properly
		}
		bcs := baseCS[cc.Name]
		if bcs == nil {
			return nil, 0, nil
		}
		if !affected[cc.Name] {
			// Reuse the base schedule; replay its test muxes so later
			// cores see the graph a full run would.
			for _, m := range bcs.Muxes {
				ng.AddTestMux(m.From, m.To)
				s.MuxArea.Add(cell.Mux2, m.Width)
			}
			s.Cores = append(s.Cores, bcs)
			s.TotalTAT += bcs.TAT
			continue
		}
		cs, err := sched.ScheduleCore(ch, ng, fi, cc, s)
		if err != nil {
			return nil, 0, nil // let the full path surface the error faithfully
		}
		if !muxesEqual(cs.Muxes, bcs.Muxes) {
			// A recomputed core changed its mux insertions: cores after
			// it would see a different graph than the base did, voiding
			// the reuse argument. Rare — punt to the full path.
			return nil, 0, nil
		}
		s.Cores = append(s.Cores, cs)
		s.TotalTAT += cs.TAT
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	e, err := f.finishEvaluation(root, sel, ng, s, b.forced)
	if err != nil {
		return nil, 0, nil
	}
	return e, pristine, nil
}

// markReach seeds fwd with the changed core's output nodes and bwd with
// its input nodes, then floods: fwd along edges, bwd against them. Both
// sweeps run on the base graph INCLUDING its scheduling muxes — a
// superset of the graph any core's searches actually saw, so the marks
// over-approximate every search's exposure to the changed edges.
func markReach(g *ccg.Graph, fwd, bwd []bool, core string) {
	var fstack, bstack []int
	for i, n := range g.Nodes {
		if n.Core != core {
			continue
		}
		if n.Kind == ccg.CoreOut {
			fwd[i] = true
			fstack = append(fstack, i)
		} else if n.Kind == ccg.CoreIn {
			bwd[i] = true
			bstack = append(bstack, i)
		}
	}
	for len(fstack) > 0 {
		u := fstack[len(fstack)-1]
		fstack = fstack[:len(fstack)-1]
		for _, eid := range g.Out[u] {
			if v := g.Edges[eid].To; !fwd[v] {
				fwd[v] = true
				fstack = append(fstack, v)
			}
		}
	}
	in := g.InEdges()
	for len(bstack) > 0 {
		u := bstack[len(bstack)-1]
		bstack = bstack[:len(bstack)-1]
		for _, eid := range in[u] {
			if v := g.Edges[eid].From; !bwd[v] {
				bwd[v] = true
				bstack = append(bstack, v)
			}
		}
	}
}

// muxesCurrent reports whether the flow's forced-mux set still matches
// the one the base was built with; the improvement walk appends muxes
// mid-walk, and a base missing one must not serve deltas.
func (d *DeltaEvaluator) muxesCurrent(b *deltaBase) bool {
	cur := d.f.ForcedMuxes
	if len(cur) != len(b.muxes) {
		return false
	}
	for i := range cur {
		if cur[i] != b.muxes[i] {
			return false
		}
	}
	return true
}

func muxesEqual(a, b []sched.Mux) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffCores counts differing entries between two canonical selections
// and names the last differing core.
func diffCores(a, b map[string]int) (int, string) {
	if len(a) != len(b) {
		return -1, ""
	}
	n, core := 0, ""
	for k, v := range a {
		if b[k] != v {
			n++
			core = k
		}
	}
	return n, core
}

// adopt stores an evaluation as a base under key, evicting the least
// recently used entry past maxBases.
func (d *DeltaEvaluator) adopt(key string, sel map[string]int, e *Evaluation, pristine int, forced cell.Area) {
	selCopy := make(map[string]int, len(sel))
	for k, v := range sel {
		selCopy[k] = v
	}
	muxes := append([]ForcedMux(nil), d.f.ForcedMuxes...)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.bases[key]; ok {
		d.touch(key)
	} else {
		for len(d.order) >= maxBases {
			oldest := d.order[0]
			d.order = d.order[1:]
			delete(d.bases, oldest)
		}
		d.order = append(d.order, key)
	}
	d.bases[key] = &deltaBase{sel: selCopy, eval: e, pristine: pristine, forced: forced, muxes: muxes}
}

// touch moves key to the most-recently-used end. Callers hold d.mu.
func (d *DeltaEvaluator) touch(key string) {
	for i, k := range d.order {
		if k == key {
			d.order = append(append(d.order[:i:i], d.order[i+1:]...), key)
			return
		}
	}
}

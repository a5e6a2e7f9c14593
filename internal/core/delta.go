// Delta evaluation: re-evaluating a selection that differs from an
// already-evaluated base in a single core without rebuilding the CCG or
// re-scheduling the whole chip. One pass-level flip step (flip)
// does it for two callers: the explorer's hot loop, where enumeration
// neighbours and improvement steps change one core at a time, and the
// degraded fallback trials, which flip one core of a faulted chip's pass
// and of its baseline's (degraded.go).
//
// # Invalidation model
//
// Swapping core c's transparency version replaces c's transparency edges
// O (base graph) by N (spliced clone); nothing else in the graph
// changes. Each other core's searches are re-run only when they might
// come out differently. Every core X other than c keeps its base
// schedule unless one of these rules fires:
//
//   - R1: one of X's base paths steps on an edge of O.
//   - R2: for an input port at node v, join(v) <= the port's base
//     arrival, where join(v) is the least reservation-free arrival at v
//     from the chip PIs of a path that takes an edge of N.
//   - R3: for an output port at node u, leave(u) <= the port's base
//     arrival, where leave(u) is the least reservation-free arrival at a
//     chip PO from u of a path that takes an edge of N.
//   - For a port whose base schedule had to insert a test mux
//     (AddedMux), R2 or R3 fires as soon as the bound is finite.
//
// join and leave are ccg.Bounds.Through over the base's final graph,
// muxes included: a superset of every graph a core's searches saw, so
// both are lower bounds. c itself is always re-scheduled.
//
// Why a core the rules spare searches exactly as in the base:
//
//   - Reservations.earliestFree returns the smallest conflict-free start
//     >= t, so an arrival never decreases as the entry time grows (the
//     searches are FIFO), and a reservation-aware arrival is never below
//     the reservation-free one. Any path that takes an edge of N thus
//     reaches v no earlier than join(v), and every node x of X's base
//     path P no earlier than join(x) >= join(v) - dist(x, v) > a(x),
//     x's base arrival. So N offers no node of P an arrival that beats
//     or ties its base one, and a tie would matter: the Finder keeps the
//     first predecessor that reaches a node's arrival, which is why the
//     rules fire on <=, not <.
//   - Removing O only removes paths and delays nodes; P avoids O (R1),
//     so every node of P keeps its arrival and its predecessor, and no
//     node pops earlier than it did.
//   - A muxed port had no path before its mux; with the bound infinite
//     N adds none, so the same mux is inserted and the search after it
//     repeats.
//   - Each core's reservations belong to its own searches, in port
//     order, and every earlier core leaves the same muxes (a re-scheduled
//     core that inserts other muxes voids the delta). By induction over
//     the ports X's searches see the same graph region and reservations.
//
// Spared cores go to sched.BuildPartial's keep list, which replays their
// recorded test muxes so the graph evolves edge-for-edge as a full run
// would; a delta evaluation returns the same numbers AND the same
// schedule signature as Flow.EvaluateSelection — a property the proptest
// differential harness checks across the whole socgen corpus.
//
// Anything that threatens that guarantee (a recomputed core inserting
// different muxes than the base did, a core that fails to schedule, a
// stale forced-mux set, a failed splice) falls back to a full evaluation
// instead; a fallback trial falls back to a spliced full pass, which
// keeps no schedule.
//
// # Fixed passes
//
// A fallback trial's chip pass is fixed: the baseline's provisioned test
// muxes are installed before scheduling, and no core may insert another
// (sched.BuildPartial with fixed set). The trial flips it only when its
// baseline pass provisions the same muxes as the pass it flips, so the
// two graphs differ in c's transparency edges alone. The rules then hold
// as written, and more simply. A fixed pass inserts no muxes, and
// reservations are per core, so each core's schedule, or its failure,
// depends on the graph alone: the bounds are over the one graph every
// search saw, no port is muxed, and no mux-equality check is needed. A
// spared core finds the same paths by the argument above, so it cannot
// fail. A core that failed in the source pass has no schedule to keep
// and is always re-scheduled.
package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/ccg"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/soc"
)

// DeltaEvaluator evaluates selections against a small registry of cached
// base evaluations, re-running only the work a single-core version flip
// invalidates. It is safe for concurrent use; results are plain
// Evaluations, bit-identical to Flow.EvaluateSelection. It is the
// explorer's only evaluation cache: every request counts one
// explore.cache_hits (an exact base match, returned as is) or one
// explore.cache_misses (a computed result). The registry is least
// recently used first, and both an exact match and the base that serves
// a delta count as use. A delta validates only the core schedules it
// re-computes; the ones it reuses were validated when their base was
// evaluated.
type DeltaEvaluator struct {
	f *Flow

	// AdoptCandidates controls whether every delta evaluation becomes a
	// new base (the default, right for explorer walks where each
	// accepted candidate seeds the next neighbourhood). A full evaluation
	// always becomes a base, so a new evaluator's first request pins its
	// base; benchmarks turn this off to keep every later request on the
	// pure delta path.
	AdoptCandidates bool

	// tamperRescheduled is a test hook: it corrupts the TAT of every core
	// the delta path re-schedules, before validation, to prove those
	// schedules are still validated.
	tamperRescheduled bool

	mu    sync.Mutex
	bases []*deltaBase // at most maxBases, least recently used first
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

	// Over the served deltas: the cores whose schedules were computed
	// again, and the cores whose base schedules were kept.
	Rescheduled int
	Reused      int
}

// maxBases bounds the base registry (LRU eviction). Exploration walks
// stay near a frontier, so a handful of bases catches almost every
// single-core neighbour; a walk's trials all hang off its current base,
// which serving them keeps from being evicted.
const maxBases = 16

type deltaBase struct {
	versions []int // the selection, as versionsOf lists it
	eval     *Evaluation
	pass     *pass       // the pass eval finished: what a delta flips
	muxes    []ForcedMux // the flow's forced-mux list at build time
}

// NewDeltaEvaluator returns a delta evaluator over f.
func NewDeltaEvaluator(f *Flow) *DeltaEvaluator {
	return &DeltaEvaluator{f: f, AdoptCandidates: true}
}

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
	sel = d.f.Chip.Resolve(sel)
	cores := d.f.Chip.TestableCores()
	versions := versionsOf(cores, sel)

	d.mu.Lock()
	pick, flip := -1, 0
	for i := len(d.bases) - 1; i >= 0; i-- { // most recent base first
		b := d.bases[i]
		if !slices.Equal(b.muxes, d.f.ForcedMuxes) {
			// The improvement walk appends forced muxes mid-walk; a base
			// built under another mux list serves nothing.
			continue
		}
		switch n, at := diffCores(b.versions, versions); n {
		case 0:
			d.touch(i)
			d.stats.Hits++
			d.mu.Unlock()
			obs.C("explore.cache_hits").Inc()
			return b.eval, nil
		case 1:
			if pick < 0 {
				pick, flip = i, at
			}
		}
	}
	var base *deltaBase
	if pick >= 0 {
		// Serving a delta counts as use. Every trial of an improvement
		// move is one core from the walk's current base and is adopted
		// as a base itself; were the serving base not touched, a move's
		// 17th trial would find it evicted and run in full.
		base = d.bases[pick]
		d.touch(pick)
	}
	d.mu.Unlock()
	obs.C("explore.cache_misses").Inc()

	if base != nil {
		e, p, rescheduled, err := d.deltaEvaluate(ctx, base, cores[flip], sel)
		if err != nil {
			return nil, err
		}
		if e != nil {
			reused := len(cores) - rescheduled
			obs.C("core.delta_evaluations").Inc()
			obs.C("core.delta_cores_rescheduled").Add(int64(rescheduled))
			obs.C("core.delta_cores_reused").Add(int64(reused))
			d.mu.Lock()
			d.stats.Deltas++
			d.stats.Rescheduled += rescheduled
			d.stats.Reused += reused
			d.mu.Unlock()
			if d.AdoptCandidates {
				d.adopt(versions, e, p)
			}
			return e, nil
		}
		obs.C("core.delta_fallbacks").Inc()
		d.mu.Lock()
		d.stats.Fallbacks++
		d.mu.Unlock()
	}

	e, p, err := d.f.evaluateFull(ctx, sel)
	if err != nil {
		return nil, err
	}
	if base == nil {
		d.mu.Lock()
		d.stats.Fulls++
		d.mu.Unlock()
	}
	d.adopt(versions, e, p)
	return e, nil
}

// deltaEvaluate runs the incremental path against base, which differs
// from sel in the testable core c alone: the flip step plus
// finishEvaluation. It returns the evaluation, its pass and how many
// cores it re-scheduled. A nil evaluation with a nil error means "cannot
// do this incrementally, run the full path" — correctness never depends
// on the caller's fallback, only speed does.
func (d *DeltaEvaluator) deltaEvaluate(ctx context.Context, b *deltaBase, c *soc.Core, sel map[string]int) (*Evaluation, *pass, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	root := obs.Start(nil, "evaluate/delta")
	defer root.End()
	p, fresh := flip(b.pass, sel, c, nil, d.f.flipRule())
	if p == nil || p.deg.Degraded() {
		return nil, nil, 0, nil // let the full path surface the error faithfully
	}
	if d.tamperRescheduled {
		for _, cs := range fresh {
			cs.TAT++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	e, err := d.f.finishEvaluation(root, p, fresh)
	if err != nil {
		return nil, nil, 0, nil
	}
	return e, p, len(fresh), nil
}

// keepRule says which of a flip's source schedules the flip keeps.
type keepRule int

const (
	keepNone   keepRule = iota // none: a spliced full pass
	keepSpared                 // those the invalidation rules spare
	keepStale                  // all but the flipped core's: a test hook
)

// flipRule is the rule a flip of the flow keeps schedules by: the
// invalidation rules, or none of them when the flow's crippled test hook
// is set.
func (f *Flow) flipRule() keepRule {
	if f.crippled {
		return keepStale
	}
	return keepSpared
}

// graphBounds returns the bounds of the pass's graph.
func (p *pass) graphBounds() *ccg.Bounds {
	p.boundsOnce.Do(func() { p.bounds = p.g.Bounds() })
	return p.bounds
}

// flip is the one-core delta step (see the package comment) behind the
// explorer's delta evaluations and the degraded fallback trials: the pass
// of from's chip under sel, which differs from from.sel in core c alone
// (c is a core of from's chip). It splices the CCG from from's pristine
// edges, installs base's test muxes when base is non-nil (a fixed pass)
// and schedules every core but the ones rule keeps from from. A non-fixed
// pass keeps nothing when from is degraded. It returns the pass and the
// core schedules it computed. The pass is nil when the splice fails, or
// when a non-fixed flip that kept schedules came out degraded or
// re-scheduled a core into other muxes than from's: the cores after it
// then saw another graph than the kept schedules assume.
func flip(from *pass, sel map[string]int, c *soc.Core, base *pass, rule keepRule) (*pass, []*sched.CoreSchedule) {
	g := from.g.CloneWithVersion(from.pristine, c, c.VersionAt(sel[c.Name]))
	if g == nil {
		return nil, nil
	}
	fixed := base != nil
	p := &pass{sel: sel, cores: from.cores, g: g, forced: from.forced}
	if rule == keepNone || (!fixed && from.deg.Degraded()) {
		p.run(base, nil)
		return p, p.s.Cores
	}
	cores := from.cores
	var stale func(*sched.CoreSchedule) bool
	if rule == keepSpared {
		stale = invalidated(from.graphBounds(), from.g, g.TransEdges(c.Name), c.Name)
	}
	// Keep from's schedule of every core the rules spare. It passed
	// sched.Validate in the evaluation that computed it, and stays valid:
	// Validate reads only the CoreSchedule and the *ccg.Edge values its
	// steps point to, and neither is written once the core is scheduled
	// (CloneWithVersion copies every edge it renumbers, AddTestMux
	// allocates a new edge). from.s lists the cores it scheduled in chip
	// order; the others failed in from and are scheduled again.
	keep := make([]*sched.CoreSchedule, len(cores))
	j := 0
	for i, x := range cores {
		if j == len(from.s.Cores) || from.s.Cores[j].Core != x.Name {
			continue
		}
		if bcs := from.s.Cores[j]; x.Name != c.Name && (stale == nil || !stale(bcs)) {
			keep[i] = bcs
		}
		j++
	}
	p.run(base, keep)
	if !fixed && p.deg.Degraded() {
		return nil, nil
	}
	var fresh []*sched.CoreSchedule
	i := 0
	for k, cs := range p.s.Cores {
		for cores[i].Name != cs.Core {
			i++
		}
		if cs == keep[i] {
			continue
		}
		if !fixed && !slices.Equal(cs.Muxes, from.s.Cores[k].Muxes) {
			// Neither pass is degraded, so both list every core.
			return nil, nil
		}
		fresh = append(fresh, cs)
	}
	return p, fresh
}

// invalidated returns the test of the invalidation model (see the
// package comment) for a flip of core changed whose new transparency
// edges are added: whether a core's base schedule bcs may differ from the
// one a search over the spliced graph finds. bounds are those of the
// base graph bg.
func invalidated(bounds *ccg.Bounds, bg *ccg.Graph, added []*ccg.Edge, changed string) func(bcs *sched.CoreSchedule) bool {
	join, leave := bounds.Through(added)
	// R1. The removed edges are changed's transparency edges. A reused
	// schedule's steps may point into an older graph whose edge IDs
	// differ, so an edge is recognised by its kind and its core.
	onRemoved := func(p *ccg.PathResult) bool {
		for _, st := range p.Steps {
			if st.Edge.Kind == ccg.Trans && bg.Nodes[st.Edge.From].Core == changed {
				return true
			}
		}
		return false
	}
	// R2/R3: a bound at or below the base arrival, or a finite bound at
	// a muxed port.
	reached := func(bound int, ps sched.PortSchedule) bool {
		return bound >= 0 && (ps.AddedMux || bound <= ps.Arrival)
	}
	return func(bcs *sched.CoreSchedule) bool {
		for _, ps := range bcs.Inputs {
			n := len(ps.Path.Steps)
			if n == 0 || onRemoved(ps.Path) || reached(join[ps.Path.Steps[n-1].Edge.To], ps) {
				return true
			}
		}
		for _, ps := range bcs.Outputs {
			if len(ps.Path.Steps) == 0 || onRemoved(ps.Path) || reached(leave[ps.Path.Steps[0].Edge.From], ps) {
				return true
			}
		}
		return false
	}
}

// versionsOf lists a resolved selection's version index for each of
// cores, in order: the form the registry compares selections in.
func versionsOf(cores []*soc.Core, sel map[string]int) []int {
	v := make([]int, len(cores))
	for i, c := range cores {
		v[i] = sel[c.Name]
	}
	return v
}

// diffCores counts the positions two selections listed by versionsOf
// differ in, up to 2 (callers only tell 0, 1 and more apart), and
// returns the differing position when there is exactly one.
func diffCores(a, b []int) (n, at int) {
	for i := range a {
		if a[i] != b[i] {
			if n++; n == 2 {
				break
			}
			at = i
		}
	}
	return n, at
}

// adopt stores an evaluation and its pass as the most recently used
// base. It replaces the base with the same selection and forced-mux list,
// if there is one, and otherwise evicts the least recently used base past
// maxBases.
func (d *DeltaEvaluator) adopt(versions []int, e *Evaluation, p *pass) {
	nb := &deltaBase{versions: versions, eval: e, pass: p, muxes: slices.Clone(d.f.ForcedMuxes)}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, b := range d.bases {
		if slices.Equal(b.versions, versions) && slices.Equal(b.muxes, nb.muxes) {
			d.bases = slices.Delete(d.bases, i, i+1)
			break
		}
	}
	if len(d.bases) >= maxBases {
		d.bases = slices.Delete(d.bases, 0, 1)
	}
	d.bases = append(d.bases, nb)
}

// touch moves base i to the most recently used end. Callers hold d.mu.
func (d *DeltaEvaluator) touch(i int) {
	b := d.bases[i]
	d.bases = append(slices.Delete(d.bases, i, i+1), b)
}

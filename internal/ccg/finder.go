package ccg

import (
	"slices"
	"sync"

	"repro/internal/obs"
)

// Finder runs reservation-aware Dijkstra searches over a Graph while
// reusing its distance, predecessor and heap buffers across calls — the
// scheduler issues one search per core port, so a chip-level schedule
// performs hundreds of searches over graphs of identical node count, and
// the per-search allocations used to dominate the enumerate loop's
// profile. A Finder is not safe for concurrent use; create one per
// goroutine, or take one from GetFinder (sched.Schedule threads one
// through a whole schedule build).
//
// Determinism contract: searches settle nodes in (arrival, node index)
// order and keep the first predecessor that achieves a node's final
// arrival. Because relaxations out of a node follow adjacency-list order
// and the adjacency lists follow edge insertion order, a search is a pure
// function of (graph, sources, targets, reservations). The delta
// evaluator's invalidation rules rest on this and on the FIFO property of
// Reservations.earliestFree (see DESIGN.md on the delta invalidation
// model).
//
// ShortestPath, the single-target search, expands only the target's
// ancestor cone: the nodes with a path to the target. Sources outside it
// are not seeded and no edge into a node outside it is relaxed. This
// keeps every settle and predecessor decision: the cone is closed under
// predecessors, so no edge enters it from outside, and a node outside it
// can neither lower a cone node's arrival nor push a cone entry. The
// cone's heap entries therefore pop in the same order with the same
// arrivals and predecessors as in a search of the whole graph, and the
// returned path is identical. A search from the chip PIs otherwise
// settles about half of the graph before it reaches a deep core input.
// The Finder keeps the reverse adjacency the cones are marked from,
// extends it as edges are appended (AddTestMux) and rebuilds it for a
// different graph or after TruncateEdges.
//
// NearestPath, the observation search, runs over the whole graph and
// stops once every target that ties the earliest arrival has settled.
type Finder struct {
	dist      []int
	predEdge  []int
	predStart []int
	stamp     []uint32
	cone      []uint32 // node is in the current target's ancestor cone, stamped
	epoch     uint32
	h         pq
	// NearestPath's targets: node -> first index in the targets slice,
	// stamped.
	tpos   []int
	tstamp []uint32

	// Reverse adjacency of g: preds[v] lists the tail of every edge of
	// g.Edges[:nIn] that enters v. last is g.Edges[nIn-1], which tells an
	// append from a truncation that was followed by appends.
	g     *Graph
	preds [][]int
	nIn   int
	last  *Edge
	stack []int
}

// NewFinder returns an empty Finder; buffers grow on first use.
func NewFinder() *Finder { return &Finder{} }

// finderPool lets evaluations and the convenience wrappers on Graph reuse
// Finders, buffers and all.
var finderPool = sync.Pool{New: func() interface{} { return NewFinder() }}

// GetFinder returns a Finder from a process-wide pool. Hand it back with
// PutFinder once the searches are done.
func GetFinder() *Finder { return finderPool.Get().(*Finder) }

// PutFinder returns f to the pool. f drops its graph first, so a pooled
// Finder never keeps a graph alive; f must not be used afterwards.
func PutFinder(f *Finder) {
	f.g, f.last = nil, nil
	finderPool.Put(f)
}

const inf = int(^uint(0) >> 1)

// grow sizes the node-indexed buffers for n nodes, preserving epochs.
func (f *Finder) grow(n int) {
	if len(f.dist) >= n {
		return
	}
	f.dist = append(f.dist, make([]int, n-len(f.dist))...)
	f.predEdge = append(f.predEdge, make([]int, n-len(f.predEdge))...)
	f.predStart = append(f.predStart, make([]int, n-len(f.predStart))...)
	f.stamp = append(f.stamp, make([]uint32, n-len(f.stamp))...)
	f.cone = append(f.cone, make([]uint32, n-len(f.cone))...)
	f.tpos = append(f.tpos, make([]int, n-len(f.tpos))...)
	f.tstamp = append(f.tstamp, make([]uint32, n-len(f.tstamp))...)
}

// begin starts a query epoch: every node's distance reads as inf and no
// node is in the cone until touched. Epoch 0 is never used so zeroed
// stamps read as stale.
func (f *Finder) begin(n int) {
	f.grow(n)
	f.epoch++
	if f.epoch == 0 { // wrapped: hard-reset stamps once every 2^32 queries
		for i := range f.stamp {
			f.stamp[i] = 0
			f.cone[i] = 0
			f.tstamp[i] = 0
		}
		f.epoch = 1
	}
	f.h = f.h[:0]
}

func (f *Finder) distAt(n int) int {
	if f.stamp[n] != f.epoch {
		return inf
	}
	return f.dist[n]
}

func (f *Finder) setDist(n, d, pe, ps int) {
	f.stamp[n] = f.epoch
	f.dist[n] = d
	f.predEdge[n] = pe
	f.predStart[n] = ps
}

// syncPreds brings the reverse adjacency up to date with g: edges
// appended since the last search are added, and a different graph or a
// truncated edge list (even one grown back to its old length) is indexed
// anew.
func (f *Finder) syncPreds(g *Graph) {
	if g != f.g || len(g.Edges) < f.nIn || (f.nIn > 0 && g.Edges[f.nIn-1] != f.last) {
		f.g, f.nIn = g, 0
		f.preds = slices.Grow(f.preds[:0], len(g.Nodes))[:len(g.Nodes)]
		for v := range f.preds {
			f.preds[v] = f.preds[v][:0]
		}
	}
	for _, e := range g.Edges[f.nIn:] {
		f.preds[e.To] = append(f.preds[e.To], e.From)
	}
	f.nIn, f.last = len(g.Edges), nil
	if f.nIn > 0 {
		f.last = g.Edges[f.nIn-1]
	}
}

// markCone stamps target and every node with a path to it.
func (f *Finder) markCone(target int) {
	f.cone[target] = f.epoch
	stack := append(f.stack[:0], target)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range f.preds[v] {
			if f.cone[u] != f.epoch {
				f.cone[u] = f.epoch
				stack = append(stack, u)
			}
		}
	}
	f.stack = stack
}

// ShortestPath finds the earliest-arrival path from any node in sources
// (available from cycle 0) to target, honoring reservations exactly as
// Graph.ShortestPath does. It returns nil when no path exists.
func (f *Finder) ShortestPath(g *Graph, sources []int, target int, resv Reservations) *PathResult {
	f.begin(len(g.Nodes))
	f.syncPreds(g)
	f.markCone(target)
	f.seed(sources, true)
	relaxations := int64(0)
	for len(f.h) > 0 {
		it := f.h.pop()
		if f.stale(it) {
			continue
		}
		if it.node == target {
			break
		}
		relaxations += f.relax(g, it, resv, true)
	}
	obs.C("ccg.relaxations").Add(relaxations)
	obs.C("ccg.searches").Inc()
	if f.distAt(target) == inf {
		return nil
	}
	return f.reconstruct(g, target)
}

// NearestPath finds the earliest-arrival path from any node in sources
// to any node in targets, honoring reservations; of several targets
// reached at that arrival it takes the first in targets order. It returns
// nil when no target is reachable. The path is the one a single-target
// ShortestPath to the chosen target finds.
//
// The search stops when the heap's next arrival exceeds the earliest
// target arrival, not when the first target settles: nodes of equal
// arrival settle in index order, and a later-listed target may be
// reached first through zero-latency edges while an earlier-listed one
// at the same arrival is still behind nodes of higher index.
func (f *Finder) NearestPath(g *Graph, sources, targets []int, resv Reservations) *PathResult {
	f.begin(len(g.Nodes))
	for i, t := range targets {
		if f.tstamp[t] != f.epoch {
			f.tstamp[t] = f.epoch
			f.tpos[t] = i
		}
	}
	f.seed(sources, false)
	best := -1
	relaxations := int64(0)
	for len(f.h) > 0 {
		it := f.h.pop()
		if f.stale(it) {
			continue
		}
		if best >= 0 && it.time > f.dist[best] {
			break
		}
		if f.tstamp[it.node] == f.epoch && (best < 0 || f.tpos[it.node] < f.tpos[best]) {
			best = it.node
		}
		relaxations += f.relax(g, it, resv, false)
	}
	obs.C("ccg.relaxations").Add(relaxations)
	obs.C("ccg.searches").Inc()
	if best < 0 {
		return nil
	}
	return f.reconstruct(g, best)
}

// seed starts every source at cycle 0; with coned set, only sources in
// the current cone. A repeated source is seeded once: its second
// occurrence already reads distance 0.
func (f *Finder) seed(sources []int, coned bool) {
	for _, s := range sources {
		if coned && f.cone[s] != f.epoch {
			continue
		}
		if f.distAt(s) > 0 {
			f.setDist(s, 0, -1, 0)
			f.h.push(pqItem{s, 0})
		}
	}
}

// stale reports a heap entry superseded by a later, earlier-arriving
// one for its node.
func (f *Finder) stale(it pqItem) bool {
	return it.time > f.dist[it.node] || f.stamp[it.node] != f.epoch
}

// relax relaxes the edges out of a settled node — with coned set, only
// those into the current cone — and returns how many it relaxed.
func (f *Finder) relax(g *Graph, it pqItem, resv Reservations, coned bool) int64 {
	n := int64(0)
	for _, eid := range g.Out[it.node] {
		e := g.Edges[eid]
		if coned && f.cone[e.To] != f.epoch {
			continue
		}
		n++
		start := resv.earliestFree(e.Res, it.time, e.Latency)
		if arr := start + e.Latency; arr < f.distAt(e.To) {
			f.setDist(e.To, arr, eid, start)
			f.h.push(pqItem{e.To, arr})
		}
	}
	return n
}

// reconstruct walks the predecessor chain from t back to a source,
// counting the steps first so the path is allocated at its size.
func (f *Finder) reconstruct(g *Graph, t int) *PathResult {
	n := 0
	for at := t; f.predEdge[at] >= 0; at = g.Edges[f.predEdge[at]].From {
		n++
	}
	var steps []Step
	if n > 0 {
		steps = make([]Step, n)
	}
	for at := t; n > 0; {
		n--
		e := g.Edges[f.predEdge[at]]
		steps[n] = Step{Edge: e, Start: f.predStart[at], End: f.predStart[at] + e.Latency}
		at = e.From
	}
	return &PathResult{Steps: steps, Arrival: f.dist[t]}
}

// ShortestPath finds the earliest-arrival path from any node in sources
// (available from cycle 0) to target, honoring reservations: a reserved
// edge can only be entered once its busy windows have passed (the paper's
// modified Dijkstra of Section 5.1). It returns nil when no path exists.
// The search runs on a pooled Finder; for many searches over one graph,
// hold an explicit Finder instead.
func (g *Graph) ShortestPath(sources []int, target int, resv Reservations) *PathResult {
	f := GetFinder()
	p := f.ShortestPath(g, sources, target, resv)
	PutFinder(f)
	return p
}

// DistancesFrom returns, per node, the earliest arrival from the nearest
// node in sources when no edge is reserved — the Arrival a search from
// sources with empty Reservations finds for that node — or -1 where no
// path exists. One Dijkstra sweep covers every node, so callers that need
// a reservation-free distance to many targets pay for one search, not one
// per target.
func (g *Graph) DistancesFrom(sources []int) []int {
	return g.countedSweep(atZero(sources), g.Out, false)
}

// DistancesTo is DistancesFrom against the edge direction: per node, the
// earliest arrival at the nearest node in targets (the smallest Arrival
// of a reservation-free search from that node to any target), or -1.
func (g *Graph) DistancesTo(targets []int) []int {
	return g.countedSweep(atZero(targets), g.InEdges(), true)
}

// countedSweep is a sweep that counts as a search in the ccg metrics.
func (g *Graph) countedSweep(seeds []pqItem, adj [][]int, reverse bool) []int {
	dist, relaxations := g.sweep(seeds, adj, reverse, nil)
	obs.C("ccg.relaxations").Add(relaxations)
	obs.C("ccg.searches").Inc()
	return dist
}

// atZero seeds every node of nodes at distance 0.
func atZero(nodes []int) []pqItem {
	seeds := make([]pqItem, len(nodes))
	for i, n := range nodes {
		seeds[i] = pqItem{n, 0}
	}
	return seeds
}

// sweep is a reservation-free multi-source Dijkstra over the whole graph
// plus the edges of extra, relaxing out-edges, or in-edges when reverse
// is set; adj is g's adjacency in that direction. Each seed starts its
// node at its time. With no reservations an edge entered at t always
// arrives at t+Latency, so the distances from zero-time seeds are the
// ones Finder searches compute. It returns the distances, -1 where
// unreached, and the number of relaxations.
func (g *Graph) sweep(seeds []pqItem, adj [][]int, reverse bool, extra []*Edge) ([]int, int64) {
	// far returns the end of e the sweep moves toward.
	far := func(e *Edge) int {
		if reverse {
			return e.From
		}
		return e.To
	}
	near := func(e *Edge) int {
		if reverse {
			return e.To
		}
		return e.From
	}
	// extra sorted by the end the sweep leaves from, to be found by
	// binary search as their nodes settle.
	extra = slices.Clone(extra)
	slices.SortStableFunc(extra, func(a, b *Edge) int { return near(a) - near(b) })
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	var h pq
	for _, s := range seeds {
		if s.time < dist[s.node] {
			dist[s.node] = s.time
			h.push(s)
		}
	}
	relaxations := int64(0)
	step := func(t int, e *Edge) {
		relaxations++
		if v, d := far(e), t+e.Latency; d < dist[v] {
			dist[v] = d
			h.push(pqItem{v, d})
		}
	}
	for len(h) > 0 {
		it := h.pop()
		if it.time > dist[it.node] {
			continue // stale heap entry
		}
		for _, eid := range adj[it.node] {
			step(it.time, g.Edges[eid])
		}
		i, _ := slices.BinarySearchFunc(extra, it.node, func(e *Edge, n int) int { return near(e) - n })
		for ; i < len(extra) && near(extra[i]) == it.node; i++ {
			step(it.time, extra[i])
		}
	}
	for i, d := range dist {
		if d == inf {
			dist[i] = -1
		}
	}
	return dist, relaxations
}

// Bounds holds reservation-free distances of one graph: every node's
// distance from the chip PIs (head) and to the nearest chip PO (tail),
// -1 where no path exists. A reserved edge only ever delays a path
// (Reservations.earliestFree), so no search over the graph, or over a
// subgraph of it, arrives anywhere earlier than these distances say.
type Bounds struct {
	g          *Graph
	in         [][]int
	head, tail []int
}

// Bounds computes g's Bounds. g must not change while they are in use.
// The sweeps are bounds, not path searches, and do not count in
// ccg.searches or ccg.relaxations.
func (g *Graph) Bounds() *Bounds {
	b := &Bounds{g: g, in: g.InEdges()}
	b.head, _ = g.sweep(atZero(g.pis), g.Out, false, nil)
	b.tail, _ = g.sweep(atZero(g.pos), b.in, true, nil)
	return b
}

// Through bounds the paths over the graph plus the edges of extra that
// take at least one edge of extra. Per node, join[v] is the least
// reservation-free arrival at v of such a path from the chip PIs, and
// leave[u] the least reservation-free arrival at a chip PO of such a
// path from u; -1 where there is no such path. Each is one sweep seeded
// at the edges of extra, the first of them a path takes: join from each
// e.To at head[e.From]+e.Latency along the edges, leave from each e.From
// at e.Latency+tail[e.To] against them.
func (b *Bounds) Through(extra []*Edge) (join, leave []int) {
	var fwd, bwd []pqItem
	for _, e := range extra {
		if d := b.head[e.From]; d >= 0 {
			fwd = append(fwd, pqItem{e.To, d + e.Latency})
		}
		if d := b.tail[e.To]; d >= 0 {
			bwd = append(bwd, pqItem{e.From, d + e.Latency})
		}
	}
	join, _ = b.g.sweep(fwd, b.g.Out, false, extra)
	leave, _ = b.g.sweep(bwd, b.in, true, extra)
	return join, leave
}

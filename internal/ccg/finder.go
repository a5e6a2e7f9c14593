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
// function of (graph, sources, targets, reservations) — and, crucially
// for incremental re-evaluation, the distance/predecessor assignment of
// every node NOT reachable from a mutated region is identical before and
// after the mutation (see DESIGN.md on the delta invalidation model).
//
// A single-target search expands only the target's ancestor cone: the
// nodes with a path to the target. Sources outside it are not seeded and
// no edge into a node outside it is relaxed. This keeps every settle and
// predecessor decision: the cone is closed under predecessors, so no
// edge enters it from outside, and a node outside it can neither lower a
// cone node's arrival nor push a cone entry. The cone's heap entries
// therefore pop in the same order with the same arrivals and
// predecessors as in a search of the whole graph, and the returned path
// is identical. A search from the chip PIs otherwise settles about half
// of the graph before it reaches a deep core input. Multi-target searches
// stay unrestricted: the union of the POs' cones is nearly the whole
// graph. The Finder keeps the reverse adjacency the cones are marked
// from, extends it as edges are appended (AddTestMux) and rebuilds it
// for a different graph or after TruncateEdges.
type Finder struct {
	dist      []int
	predEdge  []int
	predStart []int
	stamp     []uint32
	cone      []uint32 // node is in the current target's ancestor cone, stamped
	epoch     uint32
	h         pq
	// per-query target bookkeeping
	tpos   []int // node -> index into the targets slice, stamped
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
	var out [1]*PathResult
	f.search(g, sources, []int{target}, resv, out[:])
	return out[0]
}

// ShortestPathMulti runs ONE Dijkstra from the source set and returns the
// earliest-arrival path to every target (nil where unreachable), in
// target order. The search terminates as soon as every reachable target
// has settled instead of paying one full Dijkstra per target — this is
// what turned the scheduler's per-PO probing loop into a single search.
// Repeated targets share one settle; repeated sources are seeded once.
// Each returned path is bit-identical to the one a dedicated
// single-target ShortestPath would find.
func (f *Finder) ShortestPathMulti(g *Graph, sources []int, targets []int, resv Reservations) []*PathResult {
	out := make([]*PathResult, len(targets))
	f.search(g, sources, targets, resv, out)
	return out
}

func (f *Finder) search(g *Graph, sources []int, targets []int, resv Reservations, out []*PathResult) {
	f.begin(len(g.Nodes))
	// A single target confines the search to its ancestor cone (see
	// Finder).
	coned := len(targets) == 1
	if coned {
		f.syncPreds(g)
		f.markCone(targets[0])
	}
	// Mark targets; duplicates resolve to the first position and are
	// copied across at the end.
	remaining := 0
	for i, t := range targets {
		if f.tstamp[t] != f.epoch {
			f.tstamp[t] = f.epoch
			f.tpos[t] = i
			remaining++
		}
	}
	// Seed the sources. A repeated source is seeded exactly once: the
	// second occurrence already reads distance 0.
	for _, s := range sources {
		if coned && f.cone[s] != f.epoch {
			continue
		}
		if f.distAt(s) > 0 {
			f.setDist(s, 0, -1, 0)
			f.h.push(pqItem{s, 0})
		}
	}
	relaxations := int64(0)
	for len(f.h) > 0 && remaining > 0 {
		it := f.h.pop()
		if it.time > f.dist[it.node] || f.stamp[it.node] != f.epoch {
			continue // stale heap entry
		}
		if f.tstamp[it.node] == f.epoch && f.tpos[it.node] >= 0 {
			// A target settled: its distance and predecessor chain are
			// final (relaxation is strictly improving, and every ancestor
			// settled earlier).
			f.tpos[it.node] = ^f.tpos[it.node] // mark settled, keep position
			remaining--
			if remaining == 0 {
				break
			}
		}
		for _, eid := range g.Out[it.node] {
			e := g.Edges[eid]
			if coned && f.cone[e.To] != f.epoch {
				continue
			}
			relaxations++
			start := resv.earliestFree(e.Res, it.time, e.Latency)
			arr := start + e.Latency
			if arr < f.distAt(e.To) {
				f.setDist(e.To, arr, eid, start)
				f.h.push(pqItem{e.To, arr})
			}
		}
	}
	obs.C("ccg.relaxations").Add(relaxations)
	obs.C("ccg.searches").Inc()
	for i, t := range targets {
		if f.distAt(t) == inf {
			continue
		}
		if f.tstamp[t] == f.epoch && f.tpos[t] != i && ^f.tpos[t] != i {
			// Duplicate target: reconstructed under its first position.
			first := f.tpos[t]
			if first < 0 {
				first = ^first
			}
			out[i] = out[first]
			continue
		}
		out[i] = f.reconstruct(g, t)
	}
}

// reconstruct walks the predecessor chain from t back to a source.
func (f *Finder) reconstruct(g *Graph, t int) *PathResult {
	var steps []Step
	for at := t; f.predEdge[at] >= 0; {
		e := g.Edges[f.predEdge[at]]
		steps = append(steps, Step{Edge: e, Start: f.predStart[at], End: f.predStart[at] + e.Latency})
		at = e.From
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
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
func (g *Graph) DistancesFrom(sources []int) []int { return g.sweep(sources, false) }

// DistancesTo is DistancesFrom against the edge direction: per node, the
// earliest arrival at the nearest node in targets (the smallest Arrival
// of a reservation-free search from that node to any target), or -1.
func (g *Graph) DistancesTo(targets []int) []int { return g.sweep(targets, true) }

// sweep is a reservation-free multi-source Dijkstra over the whole graph,
// relaxing out-edges, or in-edges when reverse is set. With no
// reservations an edge entered at t always arrives at t+Latency, so the
// distances are the ones Finder.search computes.
func (g *Graph) sweep(seeds []int, reverse bool) []int {
	adj := g.Out
	if reverse {
		adj = g.InEdges()
	}
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	var h pq
	for _, s := range seeds {
		if dist[s] > 0 {
			dist[s] = 0
			h.push(pqItem{s, 0})
		}
	}
	relaxations := int64(0)
	for len(h) > 0 {
		it := h.pop()
		if it.time > dist[it.node] {
			continue // stale heap entry
		}
		for _, eid := range adj[it.node] {
			e := g.Edges[eid]
			v := e.To
			if reverse {
				v = e.From
			}
			relaxations++
			if d := it.time + e.Latency; d < dist[v] {
				dist[v] = d
				h.push(pqItem{v, d})
			}
		}
	}
	obs.C("ccg.relaxations").Add(relaxations)
	obs.C("ccg.searches").Inc()
	for i, d := range dist {
		if d == inf {
			dist[i] = -1
		}
	}
	return dist
}

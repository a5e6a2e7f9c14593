package ccg

import (
	"math/rand"
	"testing"
)

// unrestrictedPath is the single-target search without cones: Dijkstra
// over the whole graph in (arrival, node) order from every source,
// stopping when the target settles. It is the reference the coned
// Finder.ShortestPath must reproduce exactly.
func unrestrictedPath(g *Graph, sources []int, target int, resv Reservations) *PathResult {
	dist := make([]int, len(g.Nodes))
	predEdge := make([]int, len(g.Nodes))
	predStart := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	var h pq
	for _, s := range sources {
		if dist[s] > 0 {
			dist[s], predEdge[s] = 0, -1
			h.push(pqItem{s, 0})
		}
	}
	for len(h) > 0 {
		it := h.pop()
		if it.time > dist[it.node] {
			continue // stale heap entry
		}
		if it.node == target {
			break
		}
		for _, eid := range g.Out[it.node] {
			e := g.Edges[eid]
			start := resv.earliestFree(e.Res, it.time, e.Latency)
			if arr := start + e.Latency; arr < dist[e.To] {
				dist[e.To], predEdge[e.To], predStart[e.To] = arr, eid, start
				h.push(pqItem{e.To, arr})
			}
		}
	}
	if dist[target] == inf {
		return nil
	}
	var steps []Step
	for at := target; predEdge[at] >= 0; {
		e := g.Edges[predEdge[at]]
		steps = append([]Step{{Edge: e, Start: predStart[at], End: predStart[at] + e.Latency}}, steps...)
		at = e.From
	}
	return &PathResult{Steps: steps, Arrival: dist[target]}
}

// sameResult reports whether two paths take the same edges (by identity)
// at the same cycles and arrive together.
func sameResult(a, b *PathResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Arrival != b.Arrival || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			return false
		}
	}
	return true
}

// randomGraph builds a graph of n nodes with random edges: self-loops and
// cycles allowed, a third of them zero-latency, most sharing resources
// from a small pool so reservations interact.
func randomGraph(rng *rand.Rand, n int, keys []ResKey) *Graph {
	g := &Graph{Nodes: make([]Node, n)}
	for m := rng.Intn(3 * n); len(g.Edges) < m; {
		e := &Edge{ID: len(g.Edges), From: rng.Intn(n), To: rng.Intn(n), Kind: Trans, Latency: rng.Intn(3)}
		if e.Latency == 0 {
			e.Kind = Wire
		}
		for k := rng.Intn(3); k > 0; k-- {
			e.Res = append(e.Res, keys[rng.Intn(len(keys))])
		}
		g.Edges = append(g.Edges, e)
	}
	g.rebuildOut()
	return g
}

// TestConeSearchMatchesUnrestricted requires Finder.ShortestPath to
// return exactly the path of a search over the whole graph, on random
// graphs with zero-latency edges, cycles, duplicate sources, unreachable
// targets and random reservations. One Finder serves every graph, and
// the graphs change under it between searches: test muxes are appended,
// and edges are truncated and appended back to the same count, so a
// stale reverse adjacency would show as a missing or wrong path.
func TestConeSearchMatchesUnrestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := []ResKey{{"C", 0}, {"C", 1}, {"C", 2}, {"D", 0}}
	fi := NewFinder()
	var found, missed, viaMux, regrown int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, keys)
		resv := Reservations{}
		for k := rng.Intn(6); k > 0; k-- {
			resv.Reserve([]ResKey{keys[rng.Intn(len(keys))]}, rng.Intn(8), 1+rng.Intn(4))
		}
		for q := 0; q < 20; q++ {
			var sources []int
			for k := rng.Intn(4); k >= 0; k-- {
				sources = append(sources, rng.Intn(n))
			}
			if rng.Intn(3) == 0 {
				sources = append(sources, sources...) // duplicates
			}
			target := rng.Intn(n)
			switch rng.Intn(4) {
			case 0: // a test mux from a source straight to the target
				g.AddTestMux(sources[rng.Intn(len(sources))], target)
				viaMux++
			case 1: // truncate, then grow back to the same edge count
				if cnt := g.EdgeCount(); cnt > 0 {
					g.TruncateEdges(rng.Intn(cnt))
					for g.EdgeCount() < cnt-1 {
						g.AddTestMux(rng.Intn(n), rng.Intn(n))
					}
					g.AddTestMux(sources[0], target)
					regrown++
				}
			}
			want := unrestrictedPath(g, sources, target, resv)
			got := fi.ShortestPath(g, sources, target, resv)
			if !sameResult(got, want) {
				t.Fatalf("trial %d query %d: target %d from %v: coned search %+v, unrestricted %+v",
					trial, q, target, sources, got, want)
			}
			if got == nil {
				missed++
				continue
			}
			found++
			if rng.Intn(2) == 0 {
				g.ReservePath(got, resv)
			}
		}
	}
	if found == 0 || missed == 0 || viaMux == 0 || regrown == 0 {
		t.Fatalf("vacuous: %d found, %d unreachable, %d mux queries, %d regrown graphs", found, missed, viaMux, regrown)
	}
}

// TestFinderSurvivesEpochWrap drives a Finder's epoch counter through
// its wraparound. Node 3 is in a cone (and settled) at epoch 1 on one
// graph; after the wrap the epoch is 1 again, so a stamp left uncleared
// would read as current on the next graph: a stale cone stamp stops the
// cone walk at node 3 before it reaches the source, a stale distance
// blocks the relaxation into node 3, and the path 0 -> 3 -> 5 is lost.
func TestFinderSurvivesEpochWrap(t *testing.T) {
	build := func(n int, arcs ...[2]int) *Graph {
		g := &Graph{Nodes: make([]Node, n)}
		for _, a := range arcs {
			g.Edges = append(g.Edges, &Edge{ID: len(g.Edges), From: a[0], To: a[1], Latency: 1})
		}
		g.rebuildOut()
		return g
	}
	first := build(6, [2]int{3, 4})
	second := build(6, [2]int{0, 3}, [2]int{3, 5})
	fi := NewFinder()
	if p := fi.ShortestPath(first, []int{3}, 3, Reservations{}); p == nil || p.Arrival != 0 {
		t.Fatalf("source as target: %+v", p)
	}
	if fi.epoch != 1 {
		t.Fatalf("first search ran at epoch %d, want 1", fi.epoch)
	}
	fi.epoch = ^uint32(0)
	got := fi.ShortestPath(second, []int{0}, 5, Reservations{})
	if fi.epoch != 1 {
		t.Fatalf("epoch after the wrap is %d, want 1", fi.epoch)
	}
	if want := unrestrictedPath(second, []int{0}, 5, Reservations{}); want == nil || !sameResult(got, want) {
		t.Fatalf("after the wrap: %+v, want %+v", got, want)
	}
}

// TestPutFinderDropsGraph requires a Finder returned to the pool to hold
// no reference into the graph it last searched.
func TestPutFinderDropsGraph(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 10, []ResKey{{"C", 0}})
	g.AddTestMux(0, 9)
	f := GetFinder()
	if f.ShortestPath(g, []int{0}, 9, Reservations{}) == nil {
		t.Fatal("no path over the test mux")
	}
	if f.g != g || f.last == nil {
		t.Fatal("the search did not index the graph")
	}
	PutFinder(f)
	if f.g != nil || f.last != nil {
		t.Fatalf("pooled Finder still references the graph: g=%p last=%p", f.g, f.last)
	}
}

package ccg

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

func TestEarliestFree(t *testing.T) {
	r := Reservations{}
	key := ResKey{Core: "X", Edge: 1}
	r.Reserve([]ResKey{key}, 0, 5)
	r.Reserve([]ResKey{key}, 8, 2)
	cases := []struct{ t, dur, want int }{
		{0, 3, 5},  // blocked by [0,5)
		{5, 3, 5},  // fits [5,8)
		{5, 4, 10}, // would overlap [8,10)
		{10, 4, 10},
		{0, 0, 0}, // zero duration never waits
	}
	for _, tc := range cases {
		if got := r.earliestFree([]ResKey{key}, tc.t, tc.dur); got != tc.want {
			t.Errorf("earliestFree(t=%d,dur=%d) = %d, want %d", tc.t, tc.dur, got, tc.want)
		}
	}
}

// refHeap is the container/heap reference pq must reproduce.
type refHeap []pqItem

func (p refHeap) Len() int            { return len(p) }
func (p refHeap) Less(i, j int) bool  { return p[i].less(p[j]) }
func (p refHeap) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refHeap) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *refHeap) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// TestHeapMatchesContainerHeap drives pq and container/heap through the
// same random push/pop interleavings, with arrivals and nodes drawn from
// small ranges so equal arrivals and repeated entries are common, and
// requires the same pops and the same layout after every operation.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var got pq
		var want refHeap
		span := 1 + rng.Intn(8)
		for op := 0; op < 300; op++ {
			if len(want) == 0 || rng.Intn(3) > 0 {
				it := pqItem{node: rng.Intn(2 * span), time: rng.Intn(span)}
				got.push(it)
				heap.Push(&want, it)
			} else {
				g, w := got.pop(), heap.Pop(&want).(pqItem)
				if g != w {
					t.Fatalf("trial %d op %d: popped %+v, container/heap pops %+v", trial, op, g, w)
				}
			}
			if !slices.Equal(got, pq(want)) {
				t.Fatalf("trial %d op %d: layout %v, container/heap %v", trial, op, got, want)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(pqItem); g != w {
				t.Fatalf("trial %d drain: popped %+v, container/heap pops %+v", trial, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d entries left after draining", trial, len(got))
		}
	}
}

// TestEarliestFreeIsFIFO checks the two facts the delta invalidation
// rules rest on, under random reservations: earliestFree returns the
// smallest start >= t whose window avoids every reservation of its
// resources (found here by trying every start in turn), and that start
// never decreases as t grows, so a later entry never arrives earlier.
func TestEarliestFreeIsFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []ResKey{{"A", 0}, {"A", 1}, {"B", 0}}
	free := func(r Reservations, res []ResKey, s, dur int) bool {
		for _, k := range res {
			for _, iv := range r[k] {
				if s < iv.End && s+dur > iv.Start {
					return false
				}
			}
		}
		return true
	}
	waited := 0
	for trial := 0; trial < 300; trial++ {
		r := Reservations{}
		for k := rng.Intn(8); k > 0; k-- {
			r.Reserve([]ResKey{keys[rng.Intn(len(keys))]}, rng.Intn(30), 1+rng.Intn(6))
		}
		var res []ResKey
		for k := rng.Intn(3); k >= 0; k-- {
			res = append(res, keys[rng.Intn(len(keys))])
		}
		dur := rng.Intn(5)
		prev := -1
		for at := 0; at < 45; at++ {
			got := r.earliestFree(res, at, dur)
			want := at
			for dur > 0 && !free(r, res, want, dur) {
				want++
			}
			if got != want {
				t.Fatalf("trial %d: earliestFree(%v, t=%d, dur=%d) = %d, smallest free start is %d (reservations %v)", trial, res, at, dur, got, want, r)
			}
			if got < prev {
				t.Fatalf("trial %d: entering at %d starts at %d, entering at %d started at %d", trial, at, got, at-1, prev)
			}
			if got > at {
				waited++
			}
			prev = got
		}
	}
	if waited == 0 {
		t.Fatal("no search ever waited; the reservations never bit")
	}
}

// TestNearestPathTieSettlesLaterPOFirst builds the case that rules out
// stopping at the first PO to settle. Core output u (node 4) reaches PO
// node 3, listed second, over a zero-latency wire, and PO node 2, listed
// first, at the same arrival through core output node 5. Nodes of equal
// arrival settle in index order, so node 3 settles before node 5 is
// expanded and node 2 is even reached; the nearest path must still end
// at node 2, the first listed of the POs that tie.
func TestNearestPathTieSettlesLaterPOFirst(t *testing.T) {
	g := &Graph{
		Nodes: []Node{
			{Kind: ChipPI, Port: "I0"}, {Kind: ChipPI, Port: "I1"},
			{Kind: ChipPO, Port: "P0"}, {Kind: ChipPO, Port: "P1"},
			{Kind: CoreOut, Core: "X", Port: "u"}, {Kind: CoreOut, Core: "Y", Port: "w"},
		},
		pis: []int{0, 1},
		pos: []int{2, 3},
	}
	for _, a := range [][2]int{{4, 3}, {4, 5}, {5, 2}} {
		g.Edges = append(g.Edges, &Edge{ID: len(g.Edges), From: a[0], To: a[1], Kind: Wire})
	}
	g.rebuildOut()
	fi := NewFinder()
	p := fi.NearestPath(g, []int{4}, g.PONodes(), nil)
	if p == nil || p.Arrival != 0 || len(p.Steps) != 2 || p.Steps[1].Edge.To != 2 {
		t.Fatalf("nearest path %+v; want 4 -> 5 -> 2 at arrival 0", p)
	}
	// Listed the other way round, the direct wire to node 3 wins.
	if p := fi.NearestPath(g, []int{4}, []int{3, 2}, nil); p == nil || len(p.Steps) != 1 || p.Steps[0].Edge.To != 3 {
		t.Fatalf("nearest path %+v; want 4 -> 3", p)
	}
}

// TestBoundsThroughMatchesLayeredGraph checks Bounds.Through against an
// independent construction on random graphs: a graph of two copies of
// every node, where the original edges run within each copy and each
// extra edge leads from either copy into the second. A path from a PI in
// the first copy to v in the second took at least one extra edge, so
// join[v] is v's distance in the second copy from the PIs in the first,
// and leave[u] is the distance from u in the first copy to a PO in the
// second.
func TestBoundsThroughMatchesLayeredGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	finite := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, []ResKey{{"C", 0}})
		g.pis, g.pos = []int{0}, []int{n - 1}
		if n > 6 {
			g.pis = append(g.pis, 1)
			g.pos = append(g.pos, n-2)
		}
		var extra []*Edge
		for k := rng.Intn(4); k > 0; k-- {
			extra = append(extra, &Edge{ID: -1, From: rng.Intn(n), To: rng.Intn(n), Latency: rng.Intn(3)})
		}
		join, leave := g.Bounds().Through(extra)

		two := &Graph{Nodes: make([]Node, 2*n)}
		add := func(from, to, lat int) {
			two.Edges = append(two.Edges, &Edge{ID: len(two.Edges), From: from, To: to, Latency: lat})
		}
		for _, e := range g.Edges {
			add(e.From, e.To, e.Latency)
			add(n+e.From, n+e.To, e.Latency)
		}
		for _, e := range extra {
			add(e.From, n+e.To, e.Latency)
			add(n+e.From, n+e.To, e.Latency)
		}
		two.rebuildOut()
		var pos2 []int
		for _, p := range g.pos {
			pos2 = append(pos2, n+p)
		}
		from, to := two.DistancesFrom(g.pis), two.DistancesTo(pos2)
		for v := 0; v < n; v++ {
			if join[v] != from[n+v] {
				t.Fatalf("trial %d: join[%d] = %d, layered graph says %d", trial, v, join[v], from[n+v])
			}
			if leave[v] != to[v] {
				t.Fatalf("trial %d: leave[%d] = %d, layered graph says %d", trial, v, leave[v], to[v])
			}
			if join[v] >= 0 {
				finite++
			}
		}
	}
	if finite == 0 {
		t.Fatal("no finite bound; the test is vacuous")
	}
}

// Package ccg builds the core connectivity graph of Section 5 (Figure 9):
// nodes are chip pins and core ports, edges are chip interconnect wires
// (zero latency), per-core transparency pairs of the selected core version
// (their cost is the transparency latency), and system-level test
// multiplexers added when no path exists. Shortest test paths are found
// with a reservation-aware Dijkstra: reusing a reserved edge waits until
// the reserved cycles have passed, exactly as in Section 5.1.
package ccg

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/soc"
	"repro/internal/trans"
)

// NodeKind classifies CCG nodes.
type NodeKind int

// CCG node kinds.
const (
	ChipPI NodeKind = iota
	ChipPO
	CoreIn
	CoreOut
)

// Node is one CCG node.
type Node struct {
	Kind NodeKind
	Core string // empty for chip pins
	Port string
}

// Name returns the display name ("NUM" or "CPU.Data").
func (n Node) Name() string {
	if n.Core == "" {
		return n.Port
	}
	return n.Core + "." + n.Port
}

// EdgeKind classifies CCG edges.
type EdgeKind int

// CCG edge kinds.
const (
	Wire    EdgeKind = iota // chip interconnect, zero latency
	Trans                   // transparency pair through a core
	TestMux                 // system-level test multiplexer
)

// ResKey identifies a shared physical resource: a specific RCG edge of a
// specific core. Transparency pairs sharing a resource cannot move data in
// overlapping cycle windows.
type ResKey struct {
	Core string
	Edge int
}

// Edge is one CCG edge.
type Edge struct {
	ID      int
	From    int
	To      int
	Kind    EdgeKind
	Latency int
	Res     []ResKey
}

// Graph is the core connectivity graph.
type Graph struct {
	Chip  *soc.Chip
	Nodes []Node
	Edges []*Edge
	Out   [][]int
	idx   map[string]int
	// transRange records, per testable core, the half-open [lo, hi) edge
	// ID range holding its transparency edges. BuildSelection emits each
	// core's edges contiguously, which is what lets CloneWithVersion
	// splice a single core's version swap without rebuilding the graph.
	transRange map[string][2]int
	// pis and pos are the chip pin nodes in index order, computed once
	// per node set and shared with clones like the nodes themselves.
	pis, pos []int
}

// NodeIndex looks a node up by display name.
func (g *Graph) NodeIndex(name string) (int, bool) {
	i, ok := g.idx[name]
	return i, ok
}

// Build assembles the CCG from the chip using each testable core's
// currently selected transparency version (ch.Resolve(nil)). Memory cores
// are excluded (they are tested by BIST, Section 5).
func Build(ch *soc.Chip) (*Graph, error) {
	return BuildSelection(ch, ch.Resolve(nil))
}

// BuildSelection assembles the CCG using a resolved selection
// (soc.Chip.Resolve): one version index per testable core, taken as
// given, with an index outside a core's ladder meaning no transparency.
// A selection that leaves out a testable core is an error. The chip is
// only read, never written, so concurrent builds over one chip are safe
// — this is what lets the design-space explorer evaluate version
// combinations in parallel.
func BuildSelection(ch *soc.Chip, sel map[string]int) (*Graph, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{Chip: ch, idx: map[string]int{}, transRange: map[string][2]int{}}
	add := func(n Node) int {
		if i, ok := g.idx[n.Name()]; ok {
			return i
		}
		g.idx[n.Name()] = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		return len(g.Nodes) - 1
	}
	for _, p := range ch.PIs {
		add(Node{Kind: ChipPI, Port: p.Name})
	}
	for _, p := range ch.POs {
		add(Node{Kind: ChipPO, Port: p.Name})
	}
	for _, c := range ch.TestableCores() {
		for _, p := range c.RTL.Ports {
			k := CoreIn
			if p.Dir == rtl.Out {
				k = CoreOut
			}
			add(Node{Kind: k, Core: c.Name, Port: p.Name})
		}
	}
	for i, n := range g.Nodes {
		switch n.Kind {
		case ChipPI:
			g.pis = append(g.pis, i)
		case ChipPO:
			g.pos = append(g.pos, i)
		}
	}
	addEdge := func(e Edge) *Edge {
		e.ID = len(g.Edges)
		ep := &e
		g.Edges = append(g.Edges, ep)
		return ep
	}
	// Interconnect wires. Nets touching memory cores are dropped from the
	// CCG (the memory is not transparent).
	for _, n := range ch.Nets {
		fromName := n.FromPort
		if n.FromCore != "" {
			if c, ok := ch.CoreByName(n.FromCore); ok && c.Memory {
				continue
			}
			fromName = n.FromCore + "." + n.FromPort
		}
		toName := n.ToPort
		if n.ToCore != "" {
			if c, ok := ch.CoreByName(n.ToCore); ok && c.Memory {
				continue
			}
			toName = n.ToCore + "." + n.ToPort
		}
		from, ok1 := g.idx[fromName]
		to, ok2 := g.idx[toName]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ccg: chip %s: net %s references missing node", ch.Name, n)
		}
		addEdge(Edge{From: from, To: to, Kind: Wire})
	}
	// Transparency pairs of each selected version, one contiguous edge ID
	// range per core (recorded for incremental version splicing).
	for _, c := range ch.TestableCores() {
		idx, ok := sel[c.Name]
		if !ok {
			return nil, fmt.Errorf("ccg: chip %s: selection leaves out core %s", ch.Name, c.Name)
		}
		lo := len(g.Edges)
		appendCoreTrans(g, c, c.VersionAt(idx), func(e Edge) { addEdge(e) })
		g.transRange[c.Name] = [2]int{lo, len(g.Edges)}
	}
	g.rebuildOut()
	obs.C("ccg.builds").Inc()
	obs.G("ccg.nodes").Set(int64(len(g.Nodes)))
	obs.G("ccg.edges").Set(int64(len(g.Edges)))
	return g, nil
}

// appendCoreTrans emits the transparency edges of one core's version in
// the canonical order (deduped justification pairs then propagation
// pairs, RCG resource keys sorted). BuildSelection and CloneWithVersion
// share it so a spliced graph is edge-for-edge identical to a fresh
// build of the same selection.
func appendCoreTrans(g *Graph, c *soc.Core, v *trans.Version, addEdge func(Edge)) {
	if v == nil {
		return
	}
	seen := map[[2]string]bool{}
	for _, pairs := range [][]trans.Pair{v.JustPairs(), v.PropPairs()} {
		for _, p := range pairs {
			key := [2]string{p.In, p.Out}
			if seen[key] {
				continue
			}
			seen[key] = true
			from, ok1 := g.idx[c.Name+"."+p.In]
			to, ok2 := g.idx[c.Name+"."+p.Out]
			if !ok1 || !ok2 {
				continue
			}
			var res []ResKey
			var eids []int
			for eid := range p.Edges {
				eids = append(eids, eid)
			}
			sort.Ints(eids)
			for _, eid := range eids {
				res = append(res, ResKey{Core: c.Name, Edge: eid})
			}
			lat := p.Latency
			if lat < 1 {
				lat = 1
			}
			addEdge(Edge{From: from, To: to, Kind: Trans, Latency: lat, Res: res})
		}
	}
}

// CloneWithVersion returns a new graph equal — node for node, edge for
// edge, ID for ID — to what BuildSelection (plus the caller's first
// pristine-edge replays) would produce with core c's transparency version
// replaced by v. Only the first pristine edges of the receiver are
// cloned: edges appended later (test muxes inserted by a scheduler run)
// belong to a particular schedule, not to the selection, and the delta
// evaluator replays them separately. Nodes and the name index are shared
// with the receiver (they are immutable after build and independent of
// the version selection); edges before the spliced core's range are
// shared too, edges after it are copied with shifted IDs into one block
// together with c's new edges.
func (g *Graph) CloneWithVersion(pristine int, c *soc.Core, v *trans.Version) *Graph {
	r, ok := g.transRange[c.Name]
	if !ok || pristine < r[1] || pristine > len(g.Edges) {
		return nil
	}
	lo, hi := r[0], r[1]
	ng := &Graph{
		Chip:       g.Chip,
		Nodes:      g.Nodes,
		idx:        g.idx,
		transRange: make(map[string][2]int, len(g.transRange)),
		pis:        g.pis,
		pos:        g.pos,
	}
	block := make([]Edge, 0, pristine-lo)
	appendCoreTrans(ng, c, v, func(e Edge) { block = append(block, e) })
	newHi := lo + len(block)
	for _, e := range g.Edges[hi:pristine] {
		block = append(block, *e)
	}
	// Room for the receiver's test muxes, which the caller replays.
	ng.Edges = make([]*Edge, lo, lo+len(block)+len(g.Edges)-pristine)
	copy(ng.Edges, g.Edges[:lo])
	for i := range block {
		block[i].ID = len(ng.Edges)
		ng.Edges = append(ng.Edges, &block[i])
	}
	shift := newHi - hi
	for name, rr := range g.transRange {
		switch {
		case name == c.Name:
			ng.transRange[name] = [2]int{lo, newHi}
		case rr[0] >= hi:
			ng.transRange[name] = [2]int{rr[0] + shift, rr[1] + shift}
		default:
			ng.transRange[name] = rr
		}
	}
	ng.rebuildOut()
	obs.C("ccg.clones").Inc()
	return ng
}

// TransEdges returns core's transparency edges: one contiguous run of
// g.Edges, shared with the graph and capped at its length.
func (g *Graph) TransEdges(core string) []*Edge {
	r := g.transRange[core]
	return g.Edges[r[0]:r[1]:r[1]]
}

func (g *Graph) rebuildOut() { g.Out = adjacency(len(g.Nodes), g.Edges, false) }

// InEdges returns, per node, the IDs of the edges entering it in ID
// order: the reverse of Out, built on each call.
func (g *Graph) InEdges() [][]int { return adjacency(len(g.Nodes), g.Edges, true) }

// adjacency lists, per node, the IDs of the edges leaving it (entering
// it, with in set) in ID order. The n lists are windows of one array of
// IDs, each capped at its length, so appending to one (AddTestMux)
// copies it instead of overwriting the next node's list.
func adjacency(n int, edges []*Edge, in bool) [][]int {
	at := func(e *Edge) int {
		if in {
			return e.To
		}
		return e.From
	}
	end := make([]int, n+1) // counts, then each node's start, then its end
	for _, e := range edges {
		end[at(e)+1]++
	}
	for v := 1; v <= n; v++ {
		end[v] += end[v-1]
	}
	ids := make([]int, len(edges))
	for _, e := range edges {
		v := at(e)
		ids[end[v]] = e.ID
		end[v]++
	}
	adj := make([][]int, n)
	lo := 0
	for v := range adj {
		adj[v] = ids[lo:end[v]:end[v]]
		lo = end[v]
	}
	return adj
}

// AddTestMux inserts a system-level test multiplexer edge (PI -> core
// input, or core output -> PO) and returns it.
func (g *Graph) AddTestMux(from, to int) *Edge {
	e := &Edge{
		ID:   len(g.Edges),
		From: from, To: to,
		Kind:    TestMux,
		Latency: 0,
	}
	g.Edges = append(g.Edges, e)
	g.Out[from] = append(g.Out[from], e.ID)
	return e
}

// EdgeCount returns the number of edges currently in the graph; together
// with TruncateEdges it lets a scheduler snapshot the graph before a
// speculative mutation (test-mux insertion for one core) and roll it back
// when that core turns out to be unschedulable.
func (g *Graph) EdgeCount() int { return len(g.Edges) }

// TruncateEdges drops every edge with ID >= n and rebuilds the adjacency
// lists. Only edges appended after an EdgeCount snapshot (test muxes) are
// ever removed this way; node set and earlier edges are untouched.
func (g *Graph) TruncateEdges(n int) {
	if n < 0 || n >= len(g.Edges) {
		return
	}
	g.Edges = g.Edges[:n]
	g.rebuildOut()
}

// Interval is a half-open busy window [Start, End).
type Interval struct{ Start, End int }

// Reservations tracks busy windows per shared resource.
type Reservations map[ResKey][]Interval

// earliestFree finds the first start >= t such that [start, start+dur)
// avoids every reservation of every resource in res. Being the smallest
// such start, it never decreases as t grows: entering an edge later
// never leaves it earlier, so searches are FIFO and a reserved path never
// arrives before a reservation-free one. The delta evaluator's
// invalidation rules rest on both facts.
func (r Reservations) earliestFree(res []ResKey, t, dur int) int {
	if dur == 0 {
		return t
	}
	start := t
	conflicts := int64(0)
	for changed := true; changed; {
		changed = false
		for _, k := range res {
			for _, iv := range r[k] {
				if start < iv.End && start+dur > iv.Start {
					start = iv.End
					changed = true
					conflicts++
				}
			}
		}
	}
	if conflicts > 0 {
		obs.C("ccg.reservation_conflicts").Add(conflicts)
	}
	return start
}

// Reserve marks [start, start+dur) busy on all resources.
func (r Reservations) Reserve(res []ResKey, start, dur int) {
	if dur == 0 {
		return
	}
	for _, k := range res {
		r[k] = append(r[k], Interval{start, start + dur})
	}
}

// Step is one edge traversal of a found path.
type Step struct {
	Edge  *Edge
	Start int // cycle the edge begins moving data
	End   int // Start + Latency
}

// PathResult is a reservation-aware shortest path.
type PathResult struct {
	Steps   []Step
	Arrival int
}

type pqItem struct {
	node int
	time int
}

// less orders heap entries by (arrival time, node index). The node
// tie-break matters: it makes the settle order of equal-arrival nodes a
// pure function of their distances rather than of heap layout, which is
// what keeps search results over unmutated graph regions bit-identical
// across an incremental version splice (see Finder).
func (a pqItem) less(b pqItem) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.node < b.node
}

// pq is a binary min-heap of pqItems. push and pop sift exactly as
// container/heap's Push and Pop do, so the heap layout and pop order are
// the same, without boxing every entry in an interface.
type pq []pqItem

func (p *pq) push(it pqItem) {
	h := append(*p, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !it.less(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	*p = h
}

// pop removes and returns the minimum entry; the heap must be non-empty.
func (p *pq) pop() pqItem {
	h := *p
	n := len(h) - 1
	top, it := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].less(h[j]) {
			j = j2
		}
		if !h[j].less(it) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = it
	*p = h[:n]
	return top
}

// ReservePath books every step of the path.
func (g *Graph) ReservePath(p *PathResult, resv Reservations) {
	for _, s := range p.Steps {
		resv.Reserve(s.Edge.Res, s.Start, s.Edge.Latency)
	}
}

// PINodes returns all chip PI node indices. The slice is shared by every
// call; its capacity is capped at its length, so appending to it copies
// rather than writing into the shared list.
func (g *Graph) PINodes() []int { return g.pis[:len(g.pis):len(g.pis)] }

// PONodes returns all chip PO node indices, shared and capped like
// PINodes.
func (g *Graph) PONodes() []int { return g.pos[:len(g.pos):len(g.pos)] }

package trans

import "sort"

// PathUse is a solved transparency path (a tree, in the presence of split
// nodes): the latency, the RCG edges used, the registers that must be
// frozen to balance unequal parallel branches (paper Section 4), and the
// terminal nodes reached.
//
// Every PathUse a search returns is new and owned by its caller: no other
// search result shares it or its maps. Callers rely on that to extend a
// sub-path in place rather than copy it, both the option-1 winner in
// solve and each branch of a split cover.
type PathUse struct {
	Latency int
	// Edges maps used RCG edge ids to the mask of source bits the path
	// moves through them. Two paths conflict on an edge only when their
	// bit masks overlap: reconvergent branches that draw disjoint slices
	// of one register load share the edge without serializing, while
	// overlapping use means different values at different times and
	// forces sequential transfer (Section 4). The mask is in the edge's
	// source coordinates whichever way the search ran: a path found
	// backward records the same mask as a path found forward that moves
	// the same bits, even where the edge's source and destination slices
	// start at different bits, and Pair.Edges carries it as is.
	Edges   map[int]uint64
	Freezes map[string]int // register/port name -> freeze cycles
	Ends    map[int]bool   // outputs reached (propagation) or inputs (justification)
}

func newPathUse() *PathUse {
	return &PathUse{Edges: map[int]uint64{}, Freezes: map[string]int{}, Ends: map[int]bool{}}
}

// maskRange returns a bit mask covering [lo,hi] (clamped to 64 bits).
func maskRange(lo, hi int) uint64 {
	if lo < 0 {
		lo = 0
	}
	if hi > 63 {
		hi = 63
	}
	if hi < lo {
		return 0
	}
	if hi-lo+1 >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << uint(hi-lo+1)) - 1) << uint(lo)
}

func (p *PathUse) merge(q *PathUse) {
	for e, m := range q.Edges {
		p.Edges[e] |= m
	}
	for r, c := range q.Freezes {
		if c > p.Freezes[r] {
			p.Freezes[r] = c
		}
	}
	for n := range q.Ends {
		p.Ends[n] = true
	}
}

// allowed reports whether an edge may be used in the current search mode.
// HSCAN edges are always usable; transparency muxes created in this
// version are usable; other existing RCG edges only when hscanOnly is
// false (Version 2 and beyond).
func allowed(e *Edge, hscanOnly bool) bool {
	if e.HSCAN || e.Created {
		return true
	}
	return !hscanOnly
}

type searchKey struct {
	node, lo, hi int
}

// direction is the way a transparency search walks the RCG (Section 4).
// Propagation runs forward from an input over the edges leaving each
// node until it reaches outputs; justification runs backward from an
// output over the edges entering each node until it reaches inputs. A
// hop moves the slice at the edge's near end to its far end.
type direction struct {
	forward bool
	stop    NodeKind // the node kind that ends the search
}

var (
	propagation   = direction{forward: true, stop: NodeOut}
	justification = direction{stop: NodeIn}
)

// edges returns the ids of the edges a search may leave node by.
func (d direction) edges(g *RCG, node int) []int {
	if d.forward {
		return g.Out[node]
	}
	return g.In[node]
}

// near returns the bit slice of e at the end a search enters it from.
func (d direction) near(e *Edge) (lo, hi int) {
	if d.forward {
		return e.SrcLo, e.SrcHi
	}
	return e.DstLo, e.DstHi
}

// far returns the node and low bit of e at the end a search leaves it by.
func (d direction) far(e *Edge) (node, lo int) {
	if d.forward {
		return e.To, e.DstLo
	}
	return e.From, e.SrcLo
}

// hop maps slice [lo,hi] at e's near end to the far node and slice, and
// returns the mask of e's source bits the slice occupies: the near bits
// going forward, the far bits going backward (see PathUse.Edges).
func (d direction) hop(e *Edge, lo, hi int) (node, flo, fhi int, moved uint64) {
	nlo, _ := d.near(e)
	node, base := d.far(e)
	off := lo - nlo
	return node, base + off, base + off + hi - lo, maskRange(e.SrcLo+off, e.SrcLo+off+hi-lo)
}

// SolveProp finds a minimum-latency propagation path carrying the full
// width of the input port to output port(s). The bool result reports
// success.
func (g *RCG) SolveProp(input int, hscanOnly bool) (*PathUse, bool) {
	return g.solve(propagation, input, 0, g.Nodes[input].Width-1, hscanOnly, map[searchKey]bool{})
}

// SolveJust finds a minimum-latency justification path controlling the
// full width of the output port from input port(s).
func (g *RCG) SolveJust(output int, hscanOnly bool) (*PathUse, bool) {
	return g.solve(justification, output, 0, g.Nodes[output].Width-1, hscanOnly, map[searchKey]bool{})
}

// solve moves value slice [lo,hi] (in node-local bit coordinates) from
// node to the nodes that end a search in direction d: it propagates the
// slice to output ports, or justifies it from input ports.
func (g *RCG) solve(d direction, node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
	if g.Nodes[node].Kind == d.stop {
		p := newPathUse()
		p.Ends[node] = true
		return p, true
	}
	key := searchKey{node, lo, hi}
	if onPath[key] {
		return nil, false
	}
	onPath[key] = true
	defer delete(onPath, key)

	// Option 1: a single edge carries the whole slice. Loading a register
	// costs one cycle; reading an output port is combinational; a created
	// mux buffers in the output's register. The first fastest candidate
	// wins, and only it is extended by its edge.
	var best *PathUse
	for _, eid := range d.edges(g, node) {
		e := g.Edges[eid]
		if nlo, nhi := d.near(e); !allowed(e, hscanOnly) || nlo > lo || nhi < hi {
			continue
		}
		to, flo, fhi, moved := d.hop(e, lo, hi)
		sub, ok := g.solve(d, to, flo, fhi, hscanOnly, onPath)
		if !ok {
			continue
		}
		if lat := g.hopLatency(e) + sub.Latency; best == nil || lat < best.Latency {
			sub.Edges[eid] |= moved
			sub.Latency = lat
			best = sub
		}
	}

	// Option 2: a split. Going forward (O-split) the slice leaves in parts
	// through several edges; going backward (C-split) it is loaded
	// piecewise from several sources. All parts must arrive together:
	// freeze logic holds the early branches, as at the Status register in
	// Figure 4.
	if split, ok := g.split(d, node, lo, hi, hscanOnly, onPath); ok && (best == nil || split.Latency < best.Latency) {
		best = split
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// split covers [lo,hi] with >= 2 disjoint edges starting at lo,
// enumerating candidate covers (bounded) and keeping the fastest.
// Candidates spanning the whole slice are option 1's business and are
// skipped here.
func (g *RCG) split(d direction, node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
	var best *PathUse
	budget := 32
	reach := func(e *Edge) int {
		_, nhi := d.near(e)
		return min(nhi, hi)
	}
	var cover func(cur int, parts []part)
	cover = func(cur int, parts []part) {
		if budget <= 0 {
			return
		}
		if cur > hi {
			if len(parts) >= 2 {
				budget--
				if lat := splitLatency(parts); best == nil || lat < best.Latency {
					best = combineParts(parts, lat)
				}
			}
			return
		}
		var cands []*Edge
		for _, eid := range d.edges(g, node) {
			e := g.Edges[eid]
			nlo, nhi := d.near(e)
			if !allowed(e, hscanOnly) || max(nlo, lo) != cur || nhi < cur {
				continue
			}
			if cur == lo && nhi >= hi {
				continue // full cover: handled by the single-edge option
			}
			cands = append(cands, e)
		}
		sort.Slice(cands, func(i, j int) bool { return reach(cands[i]) > reach(cands[j]) })
		for _, pick := range cands {
			end := reach(pick)
			to, flo, fhi, moved := d.hop(pick, cur, end)
			sub, ok := g.solve(d, to, flo, fhi, hscanOnly, onPath)
			if !ok {
				continue
			}
			sub.Edges[pick.ID] |= moved
			cover(end+1, append(parts, part{p: sub, arrive: g.hopLatency(pick) + sub.Latency, via: g.Nodes[to].Name}))
		}
	}
	cover(lo, nil)
	if best == nil {
		return nil, false
	}
	return best, true
}

// part is one branch of a split search.
type part struct {
	p      *PathUse
	arrive int
	via    string
}

// splitLatency is the latency of split branches run together: branches
// with disjoint edge sets run in parallel (overall latency is their max);
// branches that share an edge cannot move data simultaneously and
// serialize (their latencies add — the Section 3 CPU moves Data through
// Address(7:0) and Address(11:8) in 6+2=8 cycles for exactly this reason).
func splitLatency(parts []part) int {
	n := len(parts)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sharesEdge(parts[i].p, parts[j].p) {
				parent[find(i)] = find(j)
			}
		}
	}
	groupSum := make([]int, n)
	overall := 0
	for i := range parts {
		r := find(i)
		groupSum[r] += parts[i].arrive
		overall = max(overall, groupSum[r])
	}
	return overall
}

// combineParts merges split branches into one path of the given overall
// latency (splitLatency's). Early branches freeze until the last one
// completes.
func combineParts(parts []part, overall int) *PathUse {
	out := newPathUse()
	for i := range parts {
		out.merge(parts[i].p)
		if d := overall - parts[i].arrive; d > 0 {
			if d > out.Freezes[parts[i].via] {
				out.Freezes[parts[i].via] = d
			}
		}
	}
	out.Latency = overall
	return out
}

// EndNames returns the sorted names of the terminal nodes of a path.
func (g *RCG) EndNames(p *PathUse) []string {
	var out []string
	for n := range p.Ends {
		out = append(out, g.Nodes[n].Name)
	}
	sort.Strings(out)
	return out
}

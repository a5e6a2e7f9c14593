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
// solveForward/solveBackward and each branch of a split cover.
type PathUse struct {
	Latency int
	// Edges maps used RCG edge ids to the mask of source bits the path
	// moves through them. Two paths conflict on an edge only when their
	// bit masks overlap: reconvergent branches that draw disjoint slices
	// of one register load share the edge without serializing, while
	// overlapping use means different values at different times and
	// forces sequential transfer (Section 4).
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

// SolveProp finds a minimum-latency propagation path carrying the full
// width of the input port to output port(s). The bool result reports
// success.
func (g *RCG) SolveProp(input int, hscanOnly bool) (*PathUse, bool) {
	w := g.Nodes[input].Width
	return g.solveForward(input, 0, w-1, hscanOnly, map[searchKey]bool{})
}

// solveForward moves value slice [lo,hi] (in node-local bit coordinates)
// from node to output ports.
func (g *RCG) solveForward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
	if g.Nodes[node].Kind == NodeOut {
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

	// Option 1: a single edge carries the whole slice. The first fastest
	// candidate wins, and only it is extended by its edge.
	var best *PathUse
	for _, eid := range g.Out[node] {
		e := g.Edges[eid]
		if !allowed(e, hscanOnly) || e.SrcLo > lo || e.SrcHi < hi {
			continue
		}
		dLo := e.DstLo + (lo - e.SrcLo)
		dHi := e.DstLo + (hi - e.SrcLo)
		sub, ok := g.solveForward(e.To, dLo, dHi, hscanOnly, onPath)
		if !ok {
			continue
		}
		if lat := g.hopLatency(e) + sub.Latency; best == nil || lat < best.Latency {
			sub.Edges[eid] |= maskRange(lo, hi)
			sub.Latency = lat
			best = sub
		}
	}

	// Option 2: O-split — the slice leaves in parts through several edges;
	// all parts must reach outputs and arrive together (freeze logic
	// balances early branches).
	if split, ok := g.splitForward(node, lo, hi, hscanOnly, onPath); ok && (best == nil || split.Latency < best.Latency) {
		best = split
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// splitForward covers [lo,hi] with >= 2 disjoint edges starting at lo,
// enumerating candidate covers (bounded) and keeping the fastest.
// Candidates spanning the whole slice are option 1's business and are
// skipped here.
func (g *RCG) splitForward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
	var best *PathUse
	budget := 32
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
		for _, eid := range g.Out[node] {
			e := g.Edges[eid]
			if !allowed(e, hscanOnly) {
				continue
			}
			s := e.SrcLo
			if s < lo {
				s = lo
			}
			if s != cur || e.SrcHi < cur {
				continue
			}
			if cur == lo && e.SrcHi >= hi {
				continue // full cover: handled by the single-edge option
			}
			cands = append(cands, e)
		}
		sort.Slice(cands, func(i, j int) bool {
			return min(cands[i].SrcHi, hi) > min(cands[j].SrcHi, hi)
		})
		for _, pick := range cands {
			end := min(pick.SrcHi, hi)
			dLo := pick.DstLo + (cur - pick.SrcLo)
			dHi := pick.DstLo + (end - pick.SrcLo)
			sub, ok := g.solveForward(pick.To, dLo, dHi, hscanOnly, onPath)
			if !ok {
				continue
			}
			sub.Edges[pick.ID] |= maskRange(cur, end)
			cover(end+1, append(parts, part{p: sub, arrive: g.hopLatency(pick) + sub.Latency, via: g.Nodes[pick.To].Name}))
		}
	}
	cover(lo, nil)
	if best == nil {
		return nil, false
	}
	return best, true
}

// SolveJust finds a minimum-latency justification path controlling the
// full width of the output port from input port(s).
func (g *RCG) SolveJust(output int, hscanOnly bool) (*PathUse, bool) {
	w := g.Nodes[output].Width
	return g.solveBackward(output, 0, w-1, hscanOnly, map[searchKey]bool{})
}

// solveBackward justifies slice [lo,hi] of node from input ports.
func (g *RCG) solveBackward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
	if g.Nodes[node].Kind == NodeIn {
		p := newPathUse()
		p.Ends[node] = true
		return p, true
	}
	key := searchKey{node: ^node, lo: lo, hi: hi} // distinct keyspace from forward
	if onPath[key] {
		return nil, false
	}
	onPath[key] = true
	defer delete(onPath, key)

	// Option 1: one incoming edge covers the slice. Loading a register
	// costs one cycle; reading an output port is combinational; a created
	// mux buffers in the output's register. The first fastest candidate
	// wins, and only it is extended by its edge.
	var best *PathUse
	for _, eid := range g.In[node] {
		e := g.Edges[eid]
		if !allowed(e, hscanOnly) || e.DstLo > lo || e.DstHi < hi {
			continue
		}
		sLo := e.SrcLo + (lo - e.DstLo)
		sHi := e.SrcLo + (hi - e.DstLo)
		sub, ok := g.solveBackward(e.From, sLo, sHi, hscanOnly, onPath)
		if !ok {
			continue
		}
		if lat := g.hopLatency(e) + sub.Latency; best == nil || lat < best.Latency {
			sub.Edges[eid] |= maskRange(sLo, sHi)
			sub.Latency = lat
			best = sub
		}
	}

	// Option 2: C-split — the slice is loaded piecewise from several
	// sources (all fanin edges used; unbalanced sub-paths freeze early
	// data at the fanin source, as at the Status register in Figure 4).
	if split, ok := g.splitBackward(node, lo, hi, hscanOnly, onPath); ok && (best == nil || split.Latency < best.Latency) {
		best = split
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

func (g *RCG) splitBackward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
	var best *PathUse
	budget := 32
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
		for _, eid := range g.In[node] {
			e := g.Edges[eid]
			if !allowed(e, hscanOnly) {
				continue
			}
			s := e.DstLo
			if s < lo {
				s = lo
			}
			if s != cur || e.DstHi < cur {
				continue
			}
			if cur == lo && e.DstHi >= hi {
				continue // full cover: handled by the single-edge option
			}
			cands = append(cands, e)
		}
		sort.Slice(cands, func(i, j int) bool {
			return min(cands[i].DstHi, hi) > min(cands[j].DstHi, hi)
		})
		for _, pick := range cands {
			end := min(pick.DstHi, hi)
			sLo := pick.SrcLo + (cur - pick.DstLo)
			sHi := pick.SrcLo + (end - pick.DstLo)
			sub, ok := g.solveBackward(pick.From, sLo, sHi, hscanOnly, onPath)
			if !ok {
				continue
			}
			sub.Edges[pick.ID] |= maskRange(sLo, sHi)
			cover(end+1, append(parts, part{p: sub, arrive: g.hopLatency(pick) + sub.Latency, via: g.Nodes[pick.From].Name}))
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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

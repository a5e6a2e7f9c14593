package trans

import "sort"

// The reference transparency search: the two mirror-image copies the
// package had before propagation and justification became one search
// over a direction. TestSearchMatchesReference requires SolveProp and
// SolveJust to return exactly what these return.

// RefSolveProp is the reference for SolveProp.
func (g *RCG) RefSolveProp(input int, hscanOnly bool) (*PathUse, bool) {
	w := g.Nodes[input].Width
	return g.refSolveForward(input, 0, w-1, hscanOnly, map[searchKey]bool{})
}

// RefSolveJust is the reference for SolveJust.
func (g *RCG) RefSolveJust(output int, hscanOnly bool) (*PathUse, bool) {
	w := g.Nodes[output].Width
	return g.refSolveBackward(output, 0, w-1, hscanOnly, map[searchKey]bool{})
}

// refSolveForward moves value slice [lo,hi] (in node-local bit
// coordinates) from node to output ports.
func (g *RCG) refSolveForward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
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

	var best *PathUse
	for _, eid := range g.Out[node] {
		e := g.Edges[eid]
		if !allowed(e, hscanOnly) || e.SrcLo > lo || e.SrcHi < hi {
			continue
		}
		dLo := e.DstLo + (lo - e.SrcLo)
		dHi := e.DstLo + (hi - e.SrcLo)
		sub, ok := g.refSolveForward(e.To, dLo, dHi, hscanOnly, onPath)
		if !ok {
			continue
		}
		if lat := g.hopLatency(e) + sub.Latency; best == nil || lat < best.Latency {
			sub.Edges[eid] |= maskRange(lo, hi)
			sub.Latency = lat
			best = sub
		}
	}
	if split, ok := g.refSplitForward(node, lo, hi, hscanOnly, onPath); ok && (best == nil || split.Latency < best.Latency) {
		best = split
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

func (g *RCG) refSplitForward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
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
				continue
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
			sub, ok := g.refSolveForward(pick.To, dLo, dHi, hscanOnly, onPath)
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

// refSolveBackward justifies slice [lo,hi] of node from input ports.
func (g *RCG) refSolveBackward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
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

	var best *PathUse
	for _, eid := range g.In[node] {
		e := g.Edges[eid]
		if !allowed(e, hscanOnly) || e.DstLo > lo || e.DstHi < hi {
			continue
		}
		sLo := e.SrcLo + (lo - e.DstLo)
		sHi := e.SrcLo + (hi - e.DstLo)
		sub, ok := g.refSolveBackward(e.From, sLo, sHi, hscanOnly, onPath)
		if !ok {
			continue
		}
		if lat := g.hopLatency(e) + sub.Latency; best == nil || lat < best.Latency {
			sub.Edges[eid] |= maskRange(sLo, sHi)
			sub.Latency = lat
			best = sub
		}
	}
	if split, ok := g.refSplitBackward(node, lo, hi, hscanOnly, onPath); ok && (best == nil || split.Latency < best.Latency) {
		best = split
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

func (g *RCG) refSplitBackward(node, lo, hi int, hscanOnly bool, onPath map[searchKey]bool) (*PathUse, bool) {
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
				continue
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
			sub, ok := g.refSolveBackward(pick.From, sLo, sHi, hscanOnly, onPath)
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

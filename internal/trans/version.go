package trans

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/rtl"
)

// Version is one transparency configuration of a core: the solved
// propagation path per input, justification path per output, the extra
// transparency logic it needs, and its area overhead in cells (Figures 6
// and 8 of the paper list these ladders for the CPU, PREPROCESSOR and
// DISPLAY cores).
type Version struct {
	Index int    // 1-based
	Label string // "Version 1", ...
	RCG   *RCG   // includes any created transparency-mux edges
	Prop  map[string]*PathUse
	Just  map[string]*PathUse
	Area  cell.Area // transparency logic only (HSCAN cost excluded)
}

// PropLatency returns the propagation latency of the named input (or -1).
func (v *Version) PropLatency(in string) int {
	if p, ok := v.Prop[in]; ok {
		return p.Latency
	}
	return -1
}

// JustLatency returns the justification latency of the named output (-1
// if unknown).
func (v *Version) JustLatency(out string) int {
	if p, ok := v.Just[out]; ok {
		return p.Latency
	}
	return -1
}

// MaxLatency returns the largest latency over all inputs and outputs.
func (v *Version) MaxLatency() int {
	max := 0
	for _, p := range v.Prop {
		if p.Latency > max {
			max = p.Latency
		}
	}
	for _, p := range v.Just {
		if p.Latency > max {
			max = p.Latency
		}
	}
	return max
}

// sharesEdge reports a physical conflict: a common edge whose used bit
// masks overlap.
func sharesEdge(a, b *PathUse) bool {
	for e, m := range a.Edges {
		if b.Edges[e]&m != 0 {
			return true
		}
	}
	return false
}

// Pair is a chip-level transparency edge: data moved from core input In to
// core output Out (slice [OutLo,OutHi]) with the given latency, using the
// listed RCG edges (shared edges serialize at the chip level).
type Pair struct {
	In, Out      string
	OutLo, OutHi int
	Latency      int
	Edges        map[int]uint64 // RCG edge id -> used source-bit mask
}

// JustPairs derives (input -> output) pairs from the justification paths:
// controlling Out requires driving In for Latency cycles.
func (v *Version) JustPairs() []Pair {
	var out []Pair
	for o, p := range v.Just {
		node, ok := v.RCG.NodeIndex(o)
		if !ok {
			continue
		}
		w := v.RCG.Nodes[node].Width
		for end := range p.Ends {
			out = append(out, Pair{
				In: v.RCG.Nodes[end].Name, Out: o,
				OutLo: 0, OutHi: w - 1,
				Latency: p.Latency, Edges: p.Edges,
			})
		}
	}
	sortPairs(out)
	return out
}

// PropPairs derives (input -> output) pairs from the propagation paths:
// a value at In appears at each listed Out after Latency cycles.
func (v *Version) PropPairs() []Pair {
	var out []Pair
	for in, p := range v.Prop {
		for end := range p.Ends {
			n := v.RCG.Nodes[end]
			out = append(out, Pair{
				In: in, Out: n.Name,
				OutLo: 0, OutHi: n.Width - 1,
				Latency: p.Latency, Edges: p.Edges,
			})
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].In != ps[j].In {
			return ps[i].In < ps[j].In
		}
		if ps[i].Out != ps[j].Out {
			return ps[i].Out < ps[j].Out
		}
		return ps[i].OutLo < ps[j].OutLo
	})
}

// freezeCells is the transparency-logic cost of freezing a node: one OR
// gate when the register has a load-enable, else a two-cell clock gate.
func freezeCells(n Node) int {
	if n.HasLoad {
		return 1
	}
	return 2
}

// solveAll computes propagation and justification paths on g for every
// port and returns the assembled Version. With preferHSCAN (the paper's
// base Version 1), each port is first searched over HSCAN edges only,
// falling back to all existing RCG edges, and only then to created
// transparency muxes — the minimum-area order of Section 4. Without it
// (Version 2 and beyond), the minimum-latency path over all edges is
// taken directly. Every input is propagated before any output is
// justified: the muxes created for one port change the edges the next
// port's search and mux choice see.
func solveAll(g *RCG, index int, preferHSCAN bool) (*Version, error) {
	v := &Version{
		Index: index,
		Label: fmt.Sprintf("Version %d", index),
		RCG:   g,
		Prop:  map[string]*PathUse{},
		Just:  map[string]*PathUse{},
	}
	for _, side := range []struct {
		ports  []int
		solve  func(port int, hscanOnly bool) (*PathUse, bool)
		create func(port int) error
		paths  map[string]*PathUse
		fail   string // format of the error for a port no mux makes solvable
	}{
		{g.InputNodes(), g.SolveProp, func(in int) error { return g.createPropEdges(in, false) }, v.Prop,
			"trans: core %s: input %s unpropagatable even with created muxes"},
		{g.OutputNodes(), g.SolveJust, g.createJustEdges, v.Just,
			"trans: core %s: output %s unjustifiable even with created muxes"},
	} {
		for _, port := range side.ports {
			name := g.Nodes[port].Name
			var p *PathUse
			var ok bool
			if preferHSCAN {
				p, ok = side.solve(port, true)
			}
			if !ok {
				p, ok = side.solve(port, false)
			}
			if !ok {
				if err := side.create(port); err != nil {
					return nil, err
				}
				if p, ok = side.solve(port, false); !ok {
					return nil, fmt.Errorf(side.fail, g.Core.Name, name)
				}
			}
			side.paths[name] = p
		}
	}
	v.computeArea()
	return v, nil
}

// createPropEdges adds transparency muxes so the input can reach outputs:
// per the paper, a register one cycle from the input (or the input itself)
// is connected to output(s), preferring outputs not yet used. With direct
// set (latency-reduction versions), the mux taps the port itself so the
// value lands in the output's register after a single cycle.
func (g *RCG) createPropEdges(in int, direct bool) error {
	// Choose the source: a register reachable in one cycle whose load
	// covers the full input (tracking where the input bits land in it),
	// else the port itself.
	w := g.Nodes[in].Width
	src := in
	srcBase := 0
	if !direct {
		for _, eid := range g.Out[in] {
			e := g.Edges[eid]
			if g.Nodes[e.To].Kind == NodeReg && e.SrcLo == 0 && e.SrcHi == w-1 {
				src = e.To
				srcBase = e.DstLo
				break
			}
		}
	}
	remaining := w
	lo := 0
	outputs, used := g.OutputNodes(), g.usedPorts(NodeOut)
	for remaining > 0 {
		o := g.pickPort(outputs, remaining, used)
		if o < 0 {
			return fmt.Errorf("trans: core %s: no output ports available for created propagation mux", g.Core.Name)
		}
		used[o] = true
		ow := g.Nodes[o].Width
		n := min(remaining, ow)
		g.AddCreatedEdge(src, o, srcBase+lo, srcBase+lo+n-1, 0, n-1)
		lo += n
		remaining -= n
	}
	return nil
}

// createJustEdges adds transparency muxes justifying the output directly
// from input port(s), landing in the register that drives the output.
func (g *RCG) createJustEdges(out int) error {
	w := g.Nodes[out].Width
	remaining := w
	lo := 0
	inputs, used := g.InputNodes(), g.usedPorts(NodeIn)
	for remaining > 0 {
		i := g.pickPort(inputs, remaining, used)
		if i < 0 {
			return fmt.Errorf("trans: core %s: no input ports available for created justification mux", g.Core.Name)
		}
		used[i] = true
		iw := g.Nodes[i].Width
		n := min(remaining, iw)
		g.AddCreatedEdge(i, out, 0, n-1, lo, lo+n-1)
		lo += n
		remaining -= n
	}
	return nil
}

// usedPorts returns the ports of the given kind that created muxes
// already use: the outputs they drive, or the inputs they read.
func (g *RCG) usedPorts(kind NodeKind) map[int]bool {
	used := map[int]bool{}
	for _, e := range g.Edges {
		port := e.To
		if kind == NodeIn {
			port = e.From
		}
		if e.Created && g.Nodes[port].Kind == kind {
			used[port] = true
		}
	}
	return used
}

// pickPort selects one of the ports nodes for a created edge: prefer
// unused, then width >= want, then widest, then the first in nodes.
func (g *RCG) pickPort(nodes []int, want int, used map[int]bool) int {
	score := func(n int) [3]int {
		s := [3]int{0, 0, g.Nodes[n].Width}
		if !used[n] {
			s[0] = 1
		}
		if g.Nodes[n].Width >= want {
			s[1] = 1
		}
		return s
	}
	best, top := -1, [3]int{}
	for _, n := range nodes {
		if s := score(n); best < 0 || slices.Compare(s[:], top[:]) > 0 {
			best, top = n, s
		}
	}
	return best
}

// computeArea prices the version's transparency logic: created muxes
// (one Mux2 per bit plus two control gates), activation logic for
// non-HSCAN edges (two gates each, as for the select line of multiplexer
// M in Figure 3), and freeze logic per frozen register.
func (v *Version) computeArea() {
	var a cell.Area
	for _, e := range v.RCG.Edges {
		if e.Created {
			a.Add(cell.Mux2, e.SrcWidth())
			a.Add(cell.Nand2, 2)
		}
	}
	nonHSCAN := map[int]bool{}
	frozen := map[string]bool{}
	scanPaths := func(ps map[string]*PathUse) {
		for _, p := range ps {
			for eid := range p.Edges {
				e := v.RCG.Edges[eid]
				if !e.HSCAN && !e.Created {
					nonHSCAN[eid] = true
				}
			}
			for r := range p.Freezes {
				frozen[r] = true
			}
		}
	}
	scanPaths(v.Prop)
	scanPaths(v.Just)
	a.Add(cell.Nand2, 2*len(nonHSCAN))
	for r := range frozen {
		if n, ok := v.RCG.NodeIndex(r); ok {
			if freezeCells(v.RCG.Nodes[n]) == 1 {
				a.Add(cell.Or2, 1)
			} else {
				a.Add(cell.And2, 2)
			}
		}
	}
	v.Area = a
}

// Elaborate builds a copy of the core's RTL in which the RCG's DFT
// hardware physically exists: every created transparency mux and every
// HSCAN scan mux becomes a real 2-to-1 multiplexer (named XM<edge id>)
// spliced in front of its destination slice, with the original drivers
// rerouted to in0 and the edge's source wired to in1. The mux selects
// stay undriven, so the elaborated core runs in mission mode until a
// simulator forces them. Created muxes landing on an output port get a
// pipeline register XR<edge id> behind in1, matching hopLatency's
// one-cycle cost for such edges. The returned map resolves edge ids to
// mux names (for chipsim.EngageElaboratedPath); when the RCG has no DFT
// edges the core is returned unchanged with a nil map.
func (g *RCG) Elaborate() (*rtl.Core, map[int]string, error) {
	c := g.Core
	var dft []*Edge
	for _, e := range g.Edges {
		if e.Created || e.ScanMux {
			dft = append(dft, e)
		}
	}
	if len(dft) == 0 {
		return c, nil, nil
	}
	nc := c.Clone()
	names := map[int]string{}
	for _, e := range dft {
		w := e.DstHi - e.DstLo + 1
		if e.SrcWidth() != w {
			return nil, nil, fmt.Errorf("elaborate %s: edge %d slice widths differ (%d vs %d)",
				c.Name, e.ID, e.SrcWidth(), w)
		}
		mux := fmt.Sprintf("XM%d", e.ID)
		dst := g.endpoint(e.To, e.DstLo, e.DstHi, true)
		src := g.endpoint(e.From, e.SrcLo, e.SrcHi, false)
		nc.Conns = rerouteDrivers(nc.Conns, dst, mux)
		nc.Muxes = append(nc.Muxes, rtl.Mux{Name: mux, Width: w, NumIn: 2})
		in1 := rtl.Endpoint{Comp: mux, Pin: "in1", Lo: 0, Hi: w - 1}
		if e.Created && g.Nodes[e.To].Kind == NodeOut {
			// The created mux buffers in the register driving the output
			// (one cycle); realize that as a dedicated pipeline register.
			reg := fmt.Sprintf("XR%d", e.ID)
			nc.Regs = append(nc.Regs, rtl.Register{Name: reg, Width: w})
			nc.Conns = append(nc.Conns,
				rtl.Conn{From: src, To: rtl.Endpoint{Comp: reg, Pin: "d", Lo: 0, Hi: w - 1}},
				rtl.Conn{From: rtl.Endpoint{Comp: reg, Pin: "q", Lo: 0, Hi: w - 1}, To: in1})
		} else {
			nc.Conns = append(nc.Conns, rtl.Conn{From: src, To: in1})
		}
		nc.Conns = append(nc.Conns,
			rtl.Conn{From: rtl.Endpoint{Comp: mux, Pin: "out", Lo: 0, Hi: w - 1}, To: dst})
		names[e.ID] = mux
	}
	if err := nc.Validate(); err != nil {
		return nil, nil, fmt.Errorf("elaborate %s: %w", c.Name, err)
	}
	return nc, names, nil
}

// endpoint maps an RCG node slice to its RTL endpoint: registers are
// written at d and read at q, ports are their own pins.
func (g *RCG) endpoint(node, lo, hi int, sink bool) rtl.Endpoint {
	n := g.Nodes[node]
	ep := rtl.Endpoint{Comp: n.Name, Lo: lo, Hi: hi}
	if n.Kind == NodeReg {
		if sink {
			ep.Pin = "d"
		} else {
			ep.Pin = "q"
		}
	}
	return ep
}

// rerouteDrivers redirects every connection bit currently driving the dst
// slice into the in0 pin of the named mux (which will drive dst instead),
// splitting connections that straddle the slice boundary. Muxes inserted
// earlier chain naturally: their out connection is itself a driver and
// gets rerouted like any other.
func rerouteDrivers(conns []rtl.Conn, dst rtl.Endpoint, mux string) []rtl.Conn {
	out := make([]rtl.Conn, 0, len(conns)+2)
	for _, cn := range conns {
		if cn.To.Comp != dst.Comp || cn.To.Pin != dst.Pin || cn.To.Hi < dst.Lo || cn.To.Lo > dst.Hi {
			out = append(out, cn)
			continue
		}
		if cn.To.Lo < dst.Lo { // below the mux slice: keep driving dst's component
			out = append(out, rtl.Conn{
				From: rtl.Endpoint{Comp: cn.From.Comp, Pin: cn.From.Pin,
					Lo: cn.From.Lo, Hi: cn.From.Lo + (dst.Lo - cn.To.Lo) - 1},
				To: rtl.Endpoint{Comp: cn.To.Comp, Pin: cn.To.Pin, Lo: cn.To.Lo, Hi: dst.Lo - 1}})
		}
		a := max(cn.To.Lo, dst.Lo)
		b := min(cn.To.Hi, dst.Hi)
		out = append(out, rtl.Conn{
			From: rtl.Endpoint{Comp: cn.From.Comp, Pin: cn.From.Pin,
				Lo: cn.From.Lo + (a - cn.To.Lo), Hi: cn.From.Lo + (b - cn.To.Lo)},
			To: rtl.Endpoint{Comp: mux, Pin: "in0", Lo: a - dst.Lo, Hi: b - dst.Lo}})
		if cn.To.Hi > dst.Hi { // above the mux slice
			out = append(out, rtl.Conn{
				From: rtl.Endpoint{Comp: cn.From.Comp, Pin: cn.From.Pin,
					Lo: cn.From.Lo + (dst.Hi + 1 - cn.To.Lo), Hi: cn.From.Hi},
				To: rtl.Endpoint{Comp: cn.To.Comp, Pin: cn.To.Pin, Lo: dst.Hi + 1, Hi: cn.To.Hi}})
		}
	}
	return out
}

// Versions generates the core's version ladder: Version 1 uses HSCAN
// edges only; Version 2 admits every existing RCG path; later versions
// add transparency multiplexers one input/output at a time until every
// latency is one cycle (the paper builds exactly this ladder in
// Figures 5-8). Versions that do not change latency or area are elided.
func Versions(base *RCG) ([]*Version, error) {
	root := obs.Start(nil, "trans/ladder")
	defer root.End()
	var out []*Version
	sp := obs.Start(root, "trans/solve-hscan")
	v1, err := solveAll(base.Clone(), 1, true)
	sp.End()
	if err != nil {
		return nil, err
	}
	out = append(out, v1)

	sp = obs.Start(root, "trans/solve-existing")
	v2, err := solveAll(base.Clone(), 2, false)
	sp.End()
	if err != nil {
		return nil, err
	}
	if differs(v1, v2) {
		out = append(out, v2)
	} else {
		v2 = v1
	}

	prev := v2
	for len(out) < 8 {
		// Add transparency muxes for every port at the current worst
		// latency (the paper reduces one input/output pair per version;
		// batching ties keeps the ladder compact, like Figures 6 and 8).
		lat := prev.MaxLatency()
		if lat <= 1 {
			break
		}
		// Visit ports in sorted name order: created-mux endpoint choice
		// depends on which edges exist already, so iteration order is
		// part of the result and must not follow map order.
		g := prev.RCG.Clone()
		for _, name := range sortedPorts(prev.Just) {
			if prev.Just[name].Latency == lat {
				node, _ := g.NodeIndex(name)
				if err := g.createJustEdges(node); err != nil {
					return nil, err
				}
			}
		}
		for _, name := range sortedPorts(prev.Prop) {
			if prev.Prop[name].Latency == lat {
				node, _ := g.NodeIndex(name)
				if err := g.createPropEdges(node, true); err != nil {
					return nil, err
				}
			}
		}
		sp = obs.Start(root, "trans/solve-mux")
		v, err := solveAll(g, out[len(out)-1].Index+1, false)
		sp.End()
		if err != nil {
			return nil, err
		}
		if !differs(prev, v) {
			break
		}
		out = append(out, v)
		prev = v
	}
	out = paretoPrune(out)
	// Renumber consecutively.
	for i, v := range out {
		v.Index = i + 1
		v.Label = fmt.Sprintf("Version %d", i+1)
	}
	obs.C("trans.versions_built").Add(int64(len(out)))
	return out, nil
}

// latencySum is the total latency across every port, the ladder's quality
// metric.
func (v *Version) latencySum() int {
	s := 0
	for _, p := range v.Prop {
		s += p.Latency
	}
	for _, p := range v.Just {
		s += p.Latency
	}
	return s
}

// paretoPrune sorts versions by area and keeps only those that strictly
// improve total latency, so the published ladder (like Figures 6 and 8)
// is a clean area-vs-latency trade-off front.
func paretoPrune(vs []*Version) []*Version {
	sort.SliceStable(vs, func(i, j int) bool {
		ai, aj := vs[i].Area, vs[j].Area
		if ai.Cells() != aj.Cells() {
			return ai.Cells() < aj.Cells()
		}
		return vs[i].latencySum() < vs[j].latencySum()
	})
	var out []*Version
	best := int(^uint(0) >> 1)
	for _, v := range vs {
		if s := v.latencySum(); s < best {
			best = s
			out = append(out, v)
		}
	}
	return out
}

// sortedPorts returns the map's port names in sorted order.
func sortedPorts(m map[string]*PathUse) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// differs reports whether two versions have different latencies or areas.
func differs(a, b *Version) bool {
	av, bv := a.Area, b.Area
	if av.Cells() != bv.Cells() {
		return true
	}
	for n, p := range a.Prop {
		if q, ok := b.Prop[n]; !ok || q.Latency != p.Latency {
			return true
		}
	}
	for n, p := range a.Just {
		if q, ok := b.Just[n]; !ok || q.Latency != p.Latency {
			return true
		}
	}
	return false
}

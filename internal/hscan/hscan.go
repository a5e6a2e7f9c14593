// Package hscan implements the high-level scan (HSCAN) DFT technique the
// paper uses at the core level (Section 2, [6]): registers are threaded
// into parallel scan chains that reuse existing register-to-register
// multiplexer and direct paths, adding test multiplexers only where no
// reusable path exists. Chain construction is a minimum path cover solved
// with Hopcroft-Karp bipartite matching over the reusable paths.
package hscan

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/rtl"
)

// LinkKind classifies how two consecutive chain elements are connected.
type LinkKind int

// Link kinds. ReuseMux configures an existing multiplexer path with a
// couple of control gates (Figure 1(a)/(b)); Direct needs only an OR gate
// on the destination's load signal; TestMux inserts a scan multiplexer in
// front of the destination register (Figure 1(c)); InputTap and OutputTap
// connect chain heads to core inputs and tails to core outputs.
const (
	ReuseMux LinkKind = iota
	Direct
	TestMux
	InputTap
	OutputTap
)

func (k LinkKind) String() string {
	switch k {
	case ReuseMux:
		return "reuse-mux"
	case Direct:
		return "direct"
	case TestMux:
		return "test-mux"
	case InputTap:
		return "input-tap"
	case OutputTap:
		return "output-tap"
	}
	return fmt.Sprintf("LinkKind(%d)", int(k))
}

// Link is one connection in a scan chain.
type Link struct {
	Kind     LinkKind
	From, To string       // component names ("" for a created chip-side tap)
	Src, Dst rtl.Endpoint // bit slices connected
	Path     rtl.Path     // underlying path for ReuseMux/Direct links
	Cost     cell.Area
}

// Chain is one scan chain: a register sequence plus its input and output
// taps.
type Chain struct {
	Regs  []string
	Links []Link // InputTap, len(Regs)-1 internal links, OutputTap
}

// Depth returns the chain's sequential depth in registers.
func (c *Chain) Depth() int { return len(c.Regs) }

// Edge is an HSCAN scan path usable as a transparency edge by
// internal/trans. Created edges come from inserted test multiplexers.
type Edge struct {
	From, To string // register names, or port names for taps
	FromPort bool
	ToPort   bool
	Src, Dst rtl.Endpoint
	Created  bool
	Hops     []rtl.Hop // mux steering for reused paths
}

// Result is the outcome of HSCAN insertion on one core.
type Result struct {
	Core     *rtl.Core
	Chains   []Chain
	Edges    []Edge
	Area     cell.Area // added test logic
	MaxDepth int       // registers in the longest chain
}

// ScanCyclesPerVector returns the number of clock cycles needed to apply
// one combinational vector through the chains: MaxDepth shift cycles plus
// one apply/capture cycle. The DISPLAY example in Section 3 (105 vectors,
// depth 4, 525 HSCAN vectors) follows this model.
func (r *Result) ScanCyclesPerVector() int {
	if r.MaxDepth == 0 {
		return 1
	}
	return r.MaxDepth + 1
}

// VectorsFor expands a combinational vector count into HSCAN vector count
// (shift + apply cycles).
func (r *Result) VectorsFor(combVectors int) int {
	return combVectors * r.ScanCyclesPerVector()
}

// candidate is a reusable path between chain elements.
type candidate struct {
	from, to string
	path     rtl.Path
	kind     LinkKind
	cost     int // cells
}

// Insert performs HSCAN insertion on the core.
func Insert(c *rtl.Core) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	paths := rtl.AllPaths(c)

	regIdx := make(map[string]int, len(c.Regs))
	for i, r := range c.Regs {
		regIdx[r.Name] = i
	}

	// Classify reusable paths.
	var regReg []candidate
	inToReg := make(map[string][]candidate)  // head register -> input taps
	regToOut := make(map[string][]candidate) // tail register -> output taps
	for _, p := range paths {
		srcKind, _, _ := c.Lookup(p.Src.Comp)
		dstKind, _, _ := c.Lookup(p.Dst.Comp)
		cand := candidate{from: p.Src.Comp, to: p.Dst.Comp, path: p}
		if p.Direct() {
			cand.kind = Direct
			cand.cost = 1 // OR gate on the destination load signal
		} else {
			cand.kind = ReuseMux
			cand.cost = 2 // two control gates per Figure 1(a)/(b)
		}
		switch {
		case srcKind == rtl.KindReg && dstKind == rtl.KindReg:
			if p.Src.Comp == p.Dst.Comp {
				continue // self-loop (hold path), useless for scan
			}
			// Penalize partial coverage of the destination: uncovered
			// bits need their own scan muxes.
			if dst, ok := c.RegByName(p.Dst.Comp); ok {
				uncovered := dst.Width - p.Dst.Width()
				if uncovered > 0 {
					cand.cost += uncovered
				}
			}
			regReg = append(regReg, cand)
		case srcKind == rtl.KindPort && dstKind == rtl.KindReg:
			cand.kind = InputTap
			inToReg[p.Dst.Comp] = append(inToReg[p.Dst.Comp], cand)
		case srcKind == rtl.KindReg && dstKind == rtl.KindPort:
			cand.kind = OutputTap
			regToOut[p.Src.Comp] = append(regToOut[p.Src.Comp], cand)
		}
	}

	// Keep the cheapest candidate per (from,to) register pair.
	best := make(map[[2]string]candidate)
	for _, cand := range regReg {
		k := [2]string{cand.from, cand.to}
		if prev, ok := best[k]; !ok || cand.cost < prev.cost {
			best[k] = cand
		}
	}
	var cands []candidate
	for _, cand := range best {
		cands = append(cands, cand)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		if cands[i].from != cands[j].from {
			return cands[i].from < cands[j].from
		}
		return cands[i].to < cands[j].to
	})

	// Maximum matching: each register has at most one scan predecessor and
	// one successor. Cheap candidates are explored first so the matching
	// prefers them.
	m := newMatcher(len(c.Regs))
	candByPair := make(map[[2]int]candidate)
	for _, cand := range cands {
		u, v := regIdx[cand.from], regIdx[cand.to]
		m.addEdge(u, v)
		candByPair[[2]int{u, v}] = cand
	}
	m.maxMatching()

	// Resolve multiplexer select conflicts: all scan links are active
	// simultaneously, so two links demanding different selects on one mux
	// cannot coexist. Drop the costlier conflicting link.
	type sel struct {
		mux string
		val int
	}
	muxSel := make(map[string]int)
	matched := make(map[int]int) // successor map: reg u -> reg v
	for u := 0; u < len(c.Regs); u++ {
		v := m.matchL[u]
		if v < 0 {
			continue
		}
		cand := candByPair[[2]int{u, v}]
		ok := true
		for _, h := range cand.path.Hops {
			if prev, seen := muxSel[h.Mux]; seen && prev != h.Sel {
				ok = false
				break
			}
		}
		if !ok {
			continue // dropped: v will be reached by a test mux instead
		}
		for _, h := range cand.path.Hops {
			muxSel[h.Mux] = h.Sel
		}
		matched[u] = v
	}

	// Assemble chains. Heads are registers with no matched predecessor;
	// cycles among matched edges are broken at the lexicographically first
	// register.
	pred := make(map[int]int)
	for u, v := range matched {
		pred[v] = u
	}
	visited := make([]bool, len(c.Regs))
	var chains []Chain
	startChain := func(head int) {
		var regs []int
		for at := head; ; {
			visited[at] = true
			regs = append(regs, at)
			nxt, ok := matched[at]
			if !ok || visited[nxt] {
				break
			}
			at = nxt
		}
		names := make([]string, len(regs))
		for i, r := range regs {
			names[i] = c.Regs[r].Name
		}
		chains = append(chains, Chain{Regs: names})
	}
	for u := range c.Regs {
		if _, hasPred := pred[u]; !hasPred && !visited[u] {
			startChain(u)
		}
	}
	for u := range c.Regs { // leftover cycles
		if !visited[u] {
			startChain(u)
		}
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i].Regs[0] < chains[j].Regs[0] })

	// Materialize links, taps and edges; accumulate area.
	res := &Result{Core: c}
	for ci := range chains {
		ch := &chains[ci]
		links := make([]Link, 0, len(ch.Regs)+1)
		// Input tap for the head.
		head := ch.Regs[0]
		headReg, _ := c.RegByName(head)
		if taps := inToReg[head]; len(taps) > 0 {
			t := cheapest(taps)
			l := Link{Kind: InputTap, From: t.path.Src.Comp, To: head, Src: t.path.Src, Dst: t.path.Dst, Path: t.path}
			l.Cost.Add(cell.Nand2, t.cost)
			links = append(links, l)
			res.Edges = append(res.Edges, Edge{From: t.path.Src.Comp, To: head, FromPort: true, Src: t.path.Src, Dst: t.path.Dst, Hops: t.path.Hops})
		} else {
			// Created scan-in: test mux in front of every head bit.
			l := Link{Kind: TestMux, From: "", To: head, Dst: rtl.Endpoint{Comp: head, Pin: "d", Lo: 0, Hi: headReg.Width - 1}}
			l.Cost.Add(cell.Mux2, headReg.Width)
			links = append(links, l)
			in := bestPort(c, rtl.In)
			w := headReg.Width
			if p, ok := c.PortByName(in); ok && p.Width < w {
				w = p.Width
			}
			res.Edges = append(res.Edges, Edge{From: in, To: head, FromPort: true, Created: true,
				Src: rtl.Endpoint{Comp: in, Lo: 0, Hi: w - 1},
				Dst: rtl.Endpoint{Comp: head, Pin: "d", Lo: 0, Hi: w - 1}})
		}
		// Internal links.
		for i := 0; i+1 < len(ch.Regs); i++ {
			u, v := regIdx[ch.Regs[i]], regIdx[ch.Regs[i+1]]
			cand, ok := candByPair[[2]int{u, v}]
			if ok {
				if w, matchedTo := matched[u]; !matchedTo || w != v {
					ok = false
				}
			}
			if ok {
				l := Link{Kind: cand.kind, From: cand.from, To: cand.to, Src: cand.path.Src, Dst: cand.path.Dst, Path: cand.path}
				if cand.kind == Direct {
					l.Cost.Add(cell.Or2, 1)
				} else {
					l.Cost.Add(cell.Nand2, 2)
				}
				if extra := cand.cost - baseCost(cand.kind); extra > 0 {
					l.Cost.Add(cell.Mux2, extra)
				}
				links = append(links, l)
				res.Edges = append(res.Edges, Edge{From: cand.from, To: cand.to, Src: cand.path.Src, Dst: cand.path.Dst, Hops: cand.path.Hops})
				// Destination bits not covered by the reused path get scan
				// muxes (already priced above); they are additional scan
				// paths from the same predecessor.
				dst, _ := c.RegByName(cand.to)
				src, _ := c.RegByName(cand.from)
				for _, run := range uncoveredRuns(dst.Width, cand.path.Dst.Lo, cand.path.Dst.Hi) {
					w := run[1] - run[0] + 1
					if w > src.Width {
						w = src.Width
					}
					// Source bits align with the destination run when the
					// predecessor is wide enough, keeping this filler path
					// disjoint from the reused slice (so transparency
					// branches through both can run in parallel).
					srcLo := run[0]
					if srcLo+w > src.Width {
						srcLo = 0
					}
					res.Edges = append(res.Edges, Edge{From: cand.from, To: cand.to, Created: true,
						Src: rtl.Endpoint{Comp: cand.from, Pin: "q", Lo: srcLo, Hi: srcLo + w - 1},
						Dst: rtl.Endpoint{Comp: cand.to, Pin: "d", Lo: run[0], Hi: run[0] + w - 1}})
				}
			} else {
				dst, _ := c.RegByName(ch.Regs[i+1])
				src, _ := c.RegByName(ch.Regs[i])
				w := dst.Width
				if src.Width < w {
					w = src.Width
				}
				l := Link{Kind: TestMux, From: ch.Regs[i], To: ch.Regs[i+1],
					Src: rtl.Endpoint{Comp: ch.Regs[i], Pin: "q", Lo: 0, Hi: w - 1},
					Dst: rtl.Endpoint{Comp: ch.Regs[i+1], Pin: "d", Lo: 0, Hi: dst.Width - 1}}
				l.Cost.Add(cell.Mux2, dst.Width)
				links = append(links, l)
				res.Edges = append(res.Edges, Edge{From: ch.Regs[i], To: ch.Regs[i+1], Created: true,
					Src: rtl.Endpoint{Comp: ch.Regs[i], Pin: "q", Lo: 0, Hi: w - 1},
					Dst: rtl.Endpoint{Comp: ch.Regs[i+1], Pin: "d", Lo: 0, Hi: w - 1}})
			}
		}
		// Output tap for the tail.
		tail := ch.Regs[len(ch.Regs)-1]
		tailReg, _ := c.RegByName(tail)
		if taps := regToOut[tail]; len(taps) > 0 {
			t := cheapest(taps)
			l := Link{Kind: OutputTap, From: tail, To: t.path.Dst.Comp, Src: t.path.Src, Dst: t.path.Dst, Path: t.path}
			l.Cost.Add(cell.Nand2, t.cost)
			links = append(links, l)
			res.Edges = append(res.Edges, Edge{From: tail, To: t.path.Dst.Comp, ToPort: true, Src: t.path.Src, Dst: t.path.Dst, Hops: t.path.Hops})
		} else {
			l := Link{Kind: TestMux, From: tail, To: "",
				Src: rtl.Endpoint{Comp: tail, Pin: "q", Lo: 0, Hi: tailReg.Width - 1}}
			l.Cost.Add(cell.Mux2, tailReg.Width)
			links = append(links, l)
			out := bestPort(c, rtl.Out)
			w := tailReg.Width
			if p, ok := c.PortByName(out); ok && p.Width < w {
				w = p.Width
			}
			res.Edges = append(res.Edges, Edge{From: tail, To: out, ToPort: true, Created: true,
				Src: rtl.Endpoint{Comp: tail, Pin: "q", Lo: 0, Hi: w - 1},
				Dst: rtl.Endpoint{Comp: out, Lo: 0, Hi: w - 1}})
		}
		ch.Links = links
		for _, l := range links {
			res.Area.AddArea(l.Cost)
		}
		if len(ch.Regs) > res.MaxDepth {
			res.MaxDepth = len(ch.Regs)
		}
	}
	res.Chains = chains
	return res, nil
}

// uncoveredRuns returns the maximal bit runs of [0,width) outside
// [lo,hi], each as a {lo,hi} pair.
func uncoveredRuns(width, lo, hi int) [][2]int {
	var out [][2]int
	if lo > 0 {
		out = append(out, [2]int{0, lo - 1})
	}
	if hi < width-1 {
		out = append(out, [2]int{hi + 1, width - 1})
	}
	return out
}

func baseCost(k LinkKind) int {
	if k == Direct {
		return 1
	}
	return 2
}

func cheapest(cs []candidate) candidate {
	best := cs[0]
	for _, c := range cs[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	return best
}

// bestPort picks the widest data port of direction dir as the scan-in or
// scan-out of a created chain end (deterministic: widest, ties by name),
// or the first port of that direction when every one is a control port.
func bestPort(c *rtl.Core, dir rtl.Dir) string {
	name, width := "", -1
	for _, p := range c.Ports {
		if p.Dir != dir || p.Control {
			continue
		}
		if p.Width > width || (p.Width == width && p.Name < name) {
			name, width = p.Name, p.Width
		}
	}
	if name == "" {
		for _, p := range c.Ports {
			if p.Dir == dir {
				return p.Name
			}
		}
	}
	return name
}

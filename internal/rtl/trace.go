package rtl

import (
	"fmt"
	"sort"
)

// Hop records one multiplexer traversed by a data path, and the select
// value that steers the path through it.
type Hop struct {
	Mux string
	Sel int
}

func (h Hop) String() string { return fmt.Sprintf("%s@%d", h.Mux, h.Sel) }

// Path is a combinational data path from a register output or input port
// (Src) to a register input or output port (Dst) passing only through
// multiplexers (Hops, in Src-to-Dst order) and wires. These are exactly the
// "direct or multiplexer paths" that define register connectivity graph
// edges in the paper (Section 4) and the reusable scan paths of HSCAN
// (Section 2, Figure 1).
type Path struct {
	Src  Endpoint // register "q" slice or input-port slice
	Dst  Endpoint // register "d" slice, register "ld", or output-port slice
	Hops []Hop
}

// Direct reports whether the path uses no multiplexer.
func (p Path) Direct() bool { return len(p.Hops) == 0 }

func (p Path) String() string {
	s := p.Src.String()
	for _, h := range p.Hops {
		s += " ->" + h.String()
	}
	return s + " -> " + p.Dst.String()
}

// maxTraceDepth bounds path search in (illegal) cyclic mux structures.
const maxTraceDepth = 64

// tracePaths enumerates every mux-only path ending at the sink slice dst,
// over the core's SinkConns index. The sink may be covered piecewise by
// different sources; each piece yields its own Path with a correspondingly
// narrowed Dst slice.
func tracePaths(c *Core, sinks map[Pin][]int, dst Endpoint) []Path {
	var out []Path
	var walk func(sink Endpoint, dstLo, dstHi int, hops []Hop, depth int)
	walk = func(sink Endpoint, dstLo, dstHi int, hops []Hop, depth int) {
		if depth > maxTraceDepth {
			return
		}
		for _, ci := range sinks[Pin{sink.Comp, sink.Pin}] {
			cn := &c.Conns[ci]
			ovLo, ovHi := cn.To.Lo, cn.To.Hi
			if sink.Lo > ovLo {
				ovLo = sink.Lo
			}
			if sink.Hi < ovHi {
				ovHi = sink.Hi
			}
			if ovLo > ovHi {
				continue
			}
			srcLo := cn.From.Lo + (ovLo - cn.To.Lo)
			srcHi := srcLo + (ovHi - ovLo)
			dLo := dstLo + (ovLo - sink.Lo)
			dHi := dLo + (ovHi - ovLo)
			kind, idx, ok := c.Lookup(cn.From.Comp)
			if !ok {
				continue
			}
			switch kind {
			case KindReg, KindPort:
				hh := make([]Hop, len(hops))
				copy(hh, hops)
				out = append(out, Path{
					Src:  Endpoint{cn.From.Comp, cn.From.Pin, srcLo, srcHi},
					Dst:  Endpoint{dst.Comp, dst.Pin, dLo, dHi},
					Hops: hh,
				})
			case KindMux:
				if cn.From.Pin != "out" {
					continue
				}
				m := c.Muxes[idx]
				for k := 0; k < m.NumIn; k++ {
					hh := make([]Hop, 0, len(hops)+1)
					hh = append(hh, Hop{m.Name, k})
					hh = append(hh, hops...)
					walk(Endpoint{m.Name, InPin(k), srcLo, srcHi}, dLo, dHi, hh, depth+1)
				}
			case KindUnit:
				// Data is transformed by functional units; such paths are
				// not usable for lossless transparency or scan.
			}
		}
	}
	walk(dst, dst.Lo, dst.Hi, nil, 0)
	sortPaths(out)
	return out
}

// AllPaths enumerates mux-only paths into every register "d" pin and every
// output port of the core. This is the raw material for both HSCAN chain
// construction and RCG extraction.
func AllPaths(c *Core) []Path {
	sinks := SinkConns(c)
	var out []Path
	for _, r := range c.Regs {
		out = append(out, tracePaths(c, sinks, Endpoint{r.Name, "d", 0, r.Width - 1})...)
	}
	for _, p := range c.Ports {
		if p.Dir == Out {
			out = append(out, tracePaths(c, sinks, Endpoint{p.Name, "", 0, p.Width - 1})...)
		}
	}
	sortPaths(out)
	return out
}

func sortPaths(ps []Path) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Dst.Comp != b.Dst.Comp {
			return a.Dst.Comp < b.Dst.Comp
		}
		if a.Dst.Lo != b.Dst.Lo {
			return a.Dst.Lo < b.Dst.Lo
		}
		if a.Src.Comp != b.Src.Comp {
			return a.Src.Comp < b.Src.Comp
		}
		if a.Src.Lo != b.Src.Lo {
			return a.Src.Lo < b.Src.Lo
		}
		return len(a.Hops) < len(b.Hops)
	})
}

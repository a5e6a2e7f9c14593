package rtlsim

import (
	"fmt"

	"repro/internal/rtl"
	"repro/internal/trans"
)

// VerifyEdge checks one RCG edge against the RTL: a value placed at the
// edge's source appears at the destination slice after one cycle (register
// destinations, with the load asserted and the multiplexer hops forced) or
// combinationally (output ports, which covers port-to-port feedthroughs).
// Created transparency-mux edges have no RTL counterpart and are skipped.
// The return values are (skipped, error).
func VerifyEdge(c *rtl.Core, g *trans.RCG, e *trans.Edge, seed uint64) (bool, error) {
	if e.Created || e.ScanMux {
		// Transparency muxes and HSCAN scan muxes are inserted hardware
		// with no counterpart in the pre-DFT RTL.
		return true, nil
	}
	from := g.Nodes[e.From]
	to := g.Nodes[e.To]
	for trial := 0; trial < 4; trial++ {
		v := mix(seed + uint64(trial)*0x9e3779b97f4a7c15)
		s, err := New(c)
		if err != nil {
			return false, err
		}
		payload := v & mask(e.SrcWidth())
		// Place the payload at the source slice.
		switch from.Kind {
		case trans.NodeIn:
			if err := s.SetInput(from.Name, payload<<uint(e.SrcLo)); err != nil {
				return false, err
			}
		case trans.NodeReg:
			if err := s.SetReg(from.Name, payload<<uint(e.SrcLo)); err != nil {
				return false, err
			}
		default:
			return false, fmt.Errorf("rtlsim: edge %d starts at an output node", e.ID)
		}
		for _, h := range e.Hops {
			if err := s.ForceMux(h.Mux, h.Sel); err != nil {
				return false, err
			}
		}
		var got uint64
		switch to.Kind {
		case trans.NodeReg:
			if r, _ := c.RegByName(to.Name); r.HasLoad {
				if err := s.ForceLoad(to.Name, true); err != nil {
					return false, err
				}
			}
			s.Step()
			got = s.Reg(to.Name)
		case trans.NodeOut:
			o, err := s.Output(to.Name)
			if err != nil {
				return false, err
			}
			got = o
		default:
			return false, fmt.Errorf("rtlsim: edge %d ends at an input node", e.ID)
		}
		gotSlice := (got >> uint(e.DstLo)) & mask(e.SrcWidth())
		if gotSlice != payload {
			return false, fmt.Errorf("rtlsim: edge %s[%d:%d] -> %s[%d:%d]: sent %#x, received %#x",
				from.Name, e.SrcHi, e.SrcLo, to.Name, e.DstHi, e.DstLo, payload, gotSlice)
		}
	}
	return false, nil
}

// VerifyAllEdges verifies every physical RCG edge of the core, returning
// the number verified and skipped.
func VerifyAllEdges(c *rtl.Core, g *trans.RCG, seed uint64) (verified, skipped int, err error) {
	for _, e := range g.Edges {
		sk, verr := VerifyEdge(c, g, e, seed+uint64(e.ID))
		if verr != nil {
			return verified, skipped, verr
		}
		if sk {
			skipped++
		} else {
			verified++
		}
	}
	return verified, skipped, nil
}

// ChainStep pairs an RCG edge with its role in a linear transparency
// chain.
type ChainStep struct {
	Edge *trans.Edge
}

// VerifyChain drives a value into an input port and checks it emerges at
// the chain's output port after exactly one cycle per register stage — the
// end-to-end transparency property of Section 3 (e.g. the PREPROCESSOR's
// five-cycle NUM -> DB path). The edges must form a linear path from an
// input node to an output node using only physical edges with
// non-conflicting mux steering.
func VerifyChain(c *rtl.Core, g *trans.RCG, edges []*trans.Edge, seed uint64) error {
	if len(edges) == 0 {
		return fmt.Errorf("rtlsim: empty chain")
	}
	first := g.Nodes[edges[0].From]
	last := g.Nodes[edges[len(edges)-1].To]
	if first.Kind != trans.NodeIn {
		return fmt.Errorf("rtlsim: chain must start at an input port, got %s", first.Name)
	}
	if last.Kind != trans.NodeOut {
		return fmt.Errorf("rtlsim: chain must end at an output port, got %s", last.Name)
	}
	// Mux steering must be consistent across the whole chain (all stages
	// active simultaneously while the value ripples).
	forced := map[string]int{}
	for _, e := range edges {
		if e.Created || e.ScanMux {
			return fmt.Errorf("rtlsim: chain uses created edge %d (not physical)", e.ID)
		}
		for _, h := range e.Hops {
			if prev, ok := forced[h.Mux]; ok && prev != h.Sel {
				return fmt.Errorf("rtlsim: chain needs mux %s at both %d and %d", h.Mux, prev, h.Sel)
			}
			forced[h.Mux] = h.Sel
		}
	}
	// Compose the slice mapping and count register stages. A later edge
	// may carry only a sub-slice of the payload (the CPU's IR[3:0] ->
	// MAR-page hop keeps just the low nibble); track the surviving slice
	// and which input bits it corresponds to.
	lo, hi := edges[0].SrcLo, edges[0].SrcHi
	inLo := edges[0].SrcLo // input-port bit matching the slice's low end
	stages := 0
	for i, e := range edges {
		if i > 0 {
			nlo, nhi := lo, hi
			if e.SrcLo > nlo {
				nlo = e.SrcLo
			}
			if e.SrcHi < nhi {
				nhi = e.SrcHi
			}
			if nlo > nhi {
				return fmt.Errorf("rtlsim: chain edge %d is disjoint from the payload", i)
			}
			inLo += nlo - lo
			lo, hi = nlo, nhi
		}
		lo, hi = e.DstLo+(lo-e.SrcLo), e.DstLo+(hi-e.SrcLo)
		if g.Nodes[e.To].Kind == trans.NodeReg {
			stages++
		}
		if i+1 < len(edges) && e.To != edges[i+1].From {
			return fmt.Errorf("rtlsim: chain broken between edges %d and %d", i, i+1)
		}
	}
	survW := hi - lo + 1
	for trial := 0; trial < 4; trial++ {
		v := mix(seed+uint64(trial)) & mask(edges[0].SrcWidth())
		s, err := New(c)
		if err != nil {
			return err
		}
		for m, sel := range forced {
			if err := s.ForceMux(m, sel); err != nil {
				return err
			}
		}
		for _, e := range edges {
			to := g.Nodes[e.To]
			if to.Kind != trans.NodeReg {
				continue
			}
			if r, _ := c.RegByName(to.Name); r.HasLoad {
				if err := s.ForceLoad(to.Name, true); err != nil {
					return err
				}
			}
		}
		if err := s.SetInput(first.Name, v<<uint(edges[0].SrcLo)); err != nil {
			return err
		}
		for cyc := 0; cyc < stages; cyc++ {
			s.Step()
		}
		got, err := s.Output(last.Name)
		if err != nil {
			return err
		}
		gotSlice := (got >> uint(lo)) & mask(survW)
		wantSlice := (v >> uint(inLo-edges[0].SrcLo)) & mask(survW)
		if gotSlice != wantSlice {
			return fmt.Errorf("rtlsim: chain %s -> %s after %d cycles: sent %#x, received %#x (surviving slice)",
				first.Name, last.Name, stages, wantSlice, gotSlice)
		}
	}
	return nil
}

// LinearChain extracts a linear edge chain realizing the justification of
// the named output in the given version, if its path is chain-shaped and
// physical; it returns nil otherwise. This bridges trans results to
// VerifyChain.
func LinearChain(g *trans.RCG, v *trans.Version, output string) []*trans.Edge {
	p, ok := v.Just[output]
	if !ok {
		return nil
	}
	// Collect the used edges; a chain has exactly one edge out of one
	// input node and threads node-to-node to the output.
	var edges []*trans.Edge
	for id := range p.Edges {
		e := v.RCG.Edges[id]
		if e.Created || e.ScanMux {
			return nil
		}
		edges = append(edges, e)
	}
	// Find the input-node edge.
	var start *trans.Edge
	for _, e := range edges {
		if v.RCG.Nodes[e.From].Kind == trans.NodeIn {
			if start != nil {
				return nil // multiple entry points: not a chain
			}
			start = e
		}
	}
	if start == nil {
		return nil
	}
	chain := []*trans.Edge{start}
	cur := start.To
	for v.RCG.Nodes[cur].Kind != trans.NodeOut {
		var next *trans.Edge
		for _, e := range edges {
			if e.From == cur {
				if next != nil {
					return nil // branches: not a chain
				}
				next = e
			}
		}
		if next == nil {
			return nil
		}
		chain = append(chain, next)
		cur = next.To
		if len(chain) > len(edges) {
			return nil
		}
	}
	out, _ := v.RCG.NodeIndex(output)
	if cur != out {
		return nil
	}
	return chain
}

// Package trans implements core transparency analysis (Section 4 of the
// paper): a register connectivity graph (RCG) is extracted from the RTL,
// transparency paths are found by breadth/depth-first search over HSCAN
// edges first and all existing paths second, split nodes (C-split/O-split)
// force parallel sub-searches that are balanced with freeze logic, and
// transparency multiplexers are inserted where no path exists or where the
// latency must be reduced. The result is a ladder of core versions trading
// transparency latency against area overhead (Figures 6 and 8).
package trans

import (
	"fmt"
	"sort"

	"repro/internal/hscan"
	"repro/internal/rtl"
)

// NodeKind classifies RCG nodes.
type NodeKind int

// RCG node kinds.
const (
	NodeIn NodeKind = iota
	NodeOut
	NodeReg
)

func (k NodeKind) String() string {
	switch k {
	case NodeIn:
		return "in"
	case NodeOut:
		return "out"
	case NodeReg:
		return "reg"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is an RCG node: an input port, output port, or register.
type Node struct {
	Kind    NodeKind
	Name    string
	Width   int
	HasLoad bool // registers with load-enable freeze for free (1 OR gate)
	Control bool // control port
}

// Edge is a data-moving RCG edge. A value entering To through the edge
// appears after the edge's Latency (1 for register destinations, 0 for
// output ports; created justification muxes are buffered in the
// destination register and cost 1).
type Edge struct {
	ID           int
	From, To     int
	SrcLo, SrcHi int
	DstLo, DstHi int
	HSCAN        bool      // part of the HSCAN scan paths
	Created      bool      // transparency mux added by this package
	ScanMux      bool      // scan mux inserted by HSCAN (physical only after insertion)
	Hops         []rtl.Hop // multiplexer steering of the underlying path
}

// SrcWidth returns the width of the source slice.
func (e *Edge) SrcWidth() int { return e.SrcHi - e.SrcLo + 1 }

// RCG is the register connectivity graph of one core.
type RCG struct {
	Core  *rtl.Core
	Scan  *hscan.Result
	Nodes []Node
	Edges []*Edge
	Out   [][]int // node -> outgoing edge ids
	In    [][]int // node -> incoming edge ids
	idx   map[string]int
}

// NodeIndex returns the index of the named node.
func (g *RCG) NodeIndex(name string) (int, bool) {
	i, ok := g.idx[name]
	return i, ok
}

// InputNodes lists the input-port node indices in declaration order.
func (g *RCG) InputNodes() []int {
	var out []int
	for i, n := range g.Nodes {
		if n.Kind == NodeIn {
			out = append(out, i)
		}
	}
	return out
}

// OutputNodes lists the output-port node indices in declaration order.
func (g *RCG) OutputNodes() []int {
	var out []int
	for i, n := range g.Nodes {
		if n.Kind == NodeOut {
			out = append(out, i)
		}
	}
	return out
}

// Build extracts the RCG from a core and its HSCAN insertion result. Every
// mux-only RTL path between ports and registers becomes an edge; edges
// that carry the scan chains (including test-mux paths created by HSCAN)
// are flagged HSCAN. When scan was inserted on c itself, its path walk
// is reused.
func Build(c *rtl.Core, scan *hscan.Result) (*RCG, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := &RCG{Core: c, Scan: scan, idx: make(map[string]int)}
	addNode := func(n Node) {
		g.idx[n.Name] = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
	}
	for _, p := range c.Ports {
		k := NodeIn
		if p.Dir == rtl.Out {
			k = NodeOut
		}
		addNode(Node{Kind: k, Name: p.Name, Width: p.Width, Control: p.Control})
	}
	for _, r := range c.Regs {
		addNode(Node{Kind: NodeReg, Name: r.Name, Width: r.Width, HasLoad: r.HasLoad})
	}

	addEdge := func(e Edge) *Edge {
		e.ID = len(g.Edges)
		ep := &e
		g.Edges = append(g.Edges, ep)
		return ep
	}

	var paths []rtl.Path
	if scan != nil && scan.Core == c && scan.Paths != nil {
		paths = scan.Paths
	} else {
		paths = rtl.AllPaths(c)
	}
	for _, p := range paths {
		if p.Dst.Pin == "ld" {
			continue // load-enable wiring is control, not a data path
		}
		from, ok1 := g.idx[p.Src.Comp]
		to, ok2 := g.idx[p.Dst.Comp]
		if !ok1 || !ok2 {
			continue
		}
		if from == to {
			continue // hold path
		}
		addEdge(Edge{
			From: from, To: to,
			SrcLo: p.Src.Lo, SrcHi: p.Src.Hi,
			DstLo: p.Dst.Lo, DstHi: p.Dst.Hi,
			Hops: p.Hops,
		})
	}

	// Flag scan edges; append HSCAN-created test-mux paths as new edges.
	if scan != nil {
		for _, se := range scan.Edges {
			from, ok1 := g.idx[se.From]
			to, ok2 := g.idx[se.To]
			if !ok1 || !ok2 {
				continue
			}
			if se.Created {
				addEdge(Edge{
					From: from, To: to,
					SrcLo: se.Src.Lo, SrcHi: se.Src.Hi,
					DstLo: se.Dst.Lo, DstHi: se.Dst.Hi,
					HSCAN:   true,
					ScanMux: true,
				})
				continue
			}
			for _, e := range g.Edges {
				if e.From == from && e.To == to &&
					e.SrcLo == se.Src.Lo && e.SrcHi == se.Src.Hi &&
					e.DstLo == se.Dst.Lo && e.DstHi == se.Dst.Hi &&
					hopsEqual(e.Hops, se.Hops) {
					e.HSCAN = true
					break
				}
			}
		}
	}
	g.rebuildAdj()
	return g, nil
}

func hopsEqual(a []rtl.Hop, b []rtl.Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rebuildAdj refreshes the adjacency lists after edges are added.
func (g *RCG) rebuildAdj() {
	g.Out = make([][]int, len(g.Nodes))
	g.In = make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		g.Out[e.From] = append(g.Out[e.From], e.ID)
		g.In[e.To] = append(g.In[e.To], e.ID)
	}
	for n := range g.Nodes {
		sort.Ints(g.Out[n])
		sort.Ints(g.In[n])
	}
}

// Clone deep-copies the RCG (shared Core and Scan, copied nodes/edges) so
// version construction can add created edges without disturbing siblings.
func (g *RCG) Clone() *RCG {
	c := &RCG{Core: g.Core, Scan: g.Scan, idx: g.idx}
	c.Nodes = append([]Node(nil), g.Nodes...)
	c.Edges = make([]*Edge, len(g.Edges))
	block := make([]Edge, len(g.Edges))
	for i, e := range g.Edges {
		block[i] = *e
		c.Edges[i] = &block[i]
	}
	c.rebuildAdj()
	return c
}

// AddCreatedEdge inserts a transparency-mux edge and returns it.
func (g *RCG) AddCreatedEdge(from, to int, srcLo, srcHi, dstLo, dstHi int) *Edge {
	e := &Edge{
		ID:   len(g.Edges),
		From: from, To: to,
		SrcLo: srcLo, SrcHi: srcHi,
		DstLo: dstLo, DstHi: dstHi,
		Created: true,
	}
	g.Edges = append(g.Edges, e)
	g.Out[from] = append(g.Out[from], e.ID)
	g.In[to] = append(g.In[to], e.ID)
	return e
}

// hopLatency is the cycle cost of a value entering node through edge e:
// one cycle to clock into a register; zero for a combinational output
// port read; created justification edges buffer in the destination
// register of the output and cost one cycle.
func (g *RCG) hopLatency(e *Edge) int {
	if g.Nodes[e.To].Kind == NodeReg {
		return 1
	}
	if e.Created {
		return 1 // test mux lands in the register driving the output
	}
	return 0
}

// Package gate provides a gate-level netlist with levelization, 64-way
// bit-parallel logic simulation, and a single-stuck-at fault model. It is
// the substrate beneath ATPG (internal/atpg) and fault simulation
// (internal/fsim), standing in for the commercial gate-level tools used in
// the paper's experiments (Section 6).
package gate

import (
	"fmt"

	"repro/internal/cell"
)

// Type identifies a gate primitive.
type Type int

// Gate primitives. Input gates have no fanin and are driven by test
// patterns (primary inputs). DFF gates hold state; under full scan they are
// treated as pseudo-primary inputs/outputs.
const (
	Input Type = iota
	Const0
	Const1
	Buf
	Inv
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Mux // fanin[0]=in0, fanin[1]=in1, fanin[2]=sel
	DFF // fanin[0]=d
)

var typeNames = [...]string{
	Input: "IN", Const0: "TIE0", Const1: "TIE1", Buf: "BUF", Inv: "INV",
	And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR", Xor: "XOR",
	Xnor: "XNOR", Mux: "MUX", DFF: "DFF",
}

func (t Type) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return fmt.Sprintf("Type(%d)", int(t))
	}
	return typeNames[t]
}

// CellKind maps the gate primitive to its library cell for area accounting.
func (t Type) CellKind() (cell.Kind, bool) {
	switch t {
	case Buf:
		return cell.Buf, true
	case Inv:
		return cell.Inv, true
	case And:
		return cell.And2, true
	case Or:
		return cell.Or2, true
	case Nand:
		return cell.Nand2, true
	case Nor:
		return cell.Nor2, true
	case Xor:
		return cell.Xor2, true
	case Xnor:
		return cell.Xnor2, true
	case Mux:
		return cell.Mux2, true
	case DFF:
		return cell.DFF, true
	case Const0:
		return cell.TieLo, true
	case Const1:
		return cell.TieHi, true
	}
	return 0, false // Input pseudo-gates occupy no area
}

// FaninCount returns the required number of fanins for the type.
func (t Type) FaninCount() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Inv, DFF:
		return 1
	case Mux:
		return 3
	default:
		return 2
	}
}

// Gate is one netlist node. Its output line is identified by its index in
// Netlist.Gates.
type Gate struct {
	Type  Type
	Fanin []int
	Name  string // optional diagnostic label
}

// Netlist is a gate-level circuit. Primary inputs are the Input-type gates;
// primary outputs are the lines listed in POs.
type Netlist struct {
	Name    string
	Gates   []Gate
	POs     []int
	PONames []string

	order []int // cached topological order of combinational gates
	pis   []int // cached Input gate ids
	dffs  []int // cached DFF gate ids
}

// Add appends a gate and returns its line id.
func (n *Netlist) Add(t Type, fanin ...int) int {
	n.Gates = append(n.Gates, Gate{Type: t, Fanin: fanin})
	n.invalidate()
	return len(n.Gates) - 1
}

// AddNamed appends a named gate and returns its line id.
func (n *Netlist) AddNamed(name string, t Type, fanin ...int) int {
	n.Gates = append(n.Gates, Gate{Type: t, Fanin: fanin, Name: name})
	n.invalidate()
	return len(n.Gates) - 1
}

// MarkPO declares line id as a primary output called name.
func (n *Netlist) MarkPO(id int, name string) {
	n.POs = append(n.POs, id)
	n.PONames = append(n.PONames, name)
}

func (n *Netlist) invalidate() { n.order, n.pis, n.dffs = nil, nil, nil }

// PIs returns the ids of the Input gates, in creation order.
func (n *Netlist) PIs() []int {
	if n.pis == nil {
		for i, g := range n.Gates {
			if g.Type == Input {
				n.pis = append(n.pis, i)
			}
		}
	}
	return n.pis
}

// DFFs returns the ids of the DFF gates, in creation order.
func (n *Netlist) DFFs() []int {
	if n.dffs == nil {
		for i, g := range n.Gates {
			if g.Type == DFF {
				n.dffs = append(n.dffs, i)
			}
		}
	}
	return n.dffs
}

// Validate checks fanin arities and references.
func (n *Netlist) Validate() error {
	for i, g := range n.Gates {
		if want := g.Type.FaninCount(); len(g.Fanin) != want {
			return fmt.Errorf("gate: %s: gate %d (%s) has %d fanins, want %d", n.Name, i, g.Type, len(g.Fanin), want)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(n.Gates) {
				return fmt.Errorf("gate: %s: gate %d references missing line %d", n.Name, i, f)
			}
		}
	}
	for _, po := range n.POs {
		if po < 0 || po >= len(n.Gates) {
			return fmt.Errorf("gate: %s: PO references missing line %d", n.Name, po)
		}
	}
	if _, err := n.Order(); err != nil {
		return err
	}
	return nil
}

// Order returns a topological order over combinational gates. DFF outputs,
// Input gates and constants are sources; DFFs are not included in the order
// (their next-state is read from their fanin after combinational
// evaluation). An error is returned for combinational cycles.
func (n *Netlist) Order() ([]int, error) {
	if n.order != nil {
		return n.order, nil
	}
	state := make([]byte, len(n.Gates)) // 0 unvisited, 1 visiting, 2 done
	order := make([]int, 0, len(n.Gates))
	// Iterative DFS to tolerate deep netlists.
	type frame struct {
		id   int
		next int
	}
	var stack []frame
	visit := func(root int) error {
		if state[root] == 2 {
			return nil
		}
		stack = append(stack[:0], frame{root, 0})
		state[root] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			g := n.Gates[f.id]
			if g.Type == Input || g.Type == Const0 || g.Type == Const1 || g.Type == DFF {
				// Sources: no combinational fanin traversal. (A DFF's
				// fanin belongs to the *next* cycle.)
				state[f.id] = 2
				if g.Type != Input && g.Type != DFF && g.Type != Const0 && g.Type != Const1 {
					order = append(order, f.id)
				}
				stack = stack[:len(stack)-1]
				continue
			}
			if f.next < len(g.Fanin) {
				child := g.Fanin[f.next]
				f.next++
				switch state[child] {
				case 0:
					cg := n.Gates[child]
					if cg.Type == Input || cg.Type == Const0 || cg.Type == Const1 || cg.Type == DFF {
						state[child] = 2
						continue
					}
					state[child] = 1
					stack = append(stack, frame{child, 0})
				case 1:
					return fmt.Errorf("gate: %s: combinational cycle through line %d", n.Name, child)
				}
				continue
			}
			state[f.id] = 2
			order = append(order, f.id)
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	for i, g := range n.Gates {
		if g.Type == DFF {
			// Ensure the cone feeding each DFF is ordered too.
			if state[g.Fanin[0]] == 0 {
				if err := visit(g.Fanin[0]); err != nil {
					return nil, err
				}
			}
			continue
		}
		if state[i] == 0 {
			if err := visit(i); err != nil {
				return nil, err
			}
		}
	}
	n.order = order
	return order, nil
}

// Levels returns the combinational level of every line (sources at 0).
func (n *Netlist) Levels() ([]int, error) {
	order, err := n.Order()
	if err != nil {
		return nil, err
	}
	lv := make([]int, len(n.Gates))
	for _, id := range order {
		max := 0
		for _, f := range n.Gates[id].Fanin {
			if lv[f]+1 > max {
				max = lv[f] + 1
			}
		}
		lv[id] = max
	}
	return lv, nil
}

// Fanouts returns, for each line, the list of gates it feeds.
func (n *Netlist) Fanouts() [][]int {
	fo := make([][]int, len(n.Gates))
	for i, g := range n.Gates {
		for _, f := range g.Fanin {
			fo[f] = append(fo[f], i)
		}
	}
	return fo
}

// CombFanouts returns, for each line, the combinational gates it feeds:
// Fanouts without the DFFs, whose data input belongs to the next cycle.
func (n *Netlist) CombFanouts() [][]int {
	fo := make([][]int, len(n.Gates))
	for i, g := range n.Gates {
		if g.Type == DFF {
			continue
		}
		for _, f := range g.Fanin {
			fo[f] = append(fo[f], i)
		}
	}
	return fo
}

// Area returns the library-cell area of the netlist.
func (n *Netlist) Area() cell.Area {
	var a cell.Area
	for _, g := range n.Gates {
		if k, ok := g.Type.CellKind(); ok {
			a.Add(k, 1)
		}
	}
	return a
}

// Stats summarizes netlist size.
type Stats struct {
	Gates int // combinational gates (excl. Input pseudo-gates and DFFs)
	FFs   int
	PIs   int
	POs   int
}

// Stats returns size statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{PIs: len(n.PIs()), POs: len(n.POs), FFs: len(n.DFFs())}
	for _, g := range n.Gates {
		switch g.Type {
		case Input, DFF:
		default:
			s.Gates++
		}
	}
	return s
}

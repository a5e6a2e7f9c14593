package gate

import "fmt"

// Sim is a 64-way bit-parallel two-valued logic simulator: bit k of every
// word carries pattern k. State (DFF outputs) persists across Step calls so
// the same simulator serves combinational full-scan evaluation (SetPI +
// Eval) and sequential simulation (Step).
type Sim struct {
	n     *Netlist
	order []int
	Val   []uint64 // current value of every line
}

// NewSim builds a simulator for the netlist.
func NewSim(n *Netlist) (*Sim, error) {
	order, err := n.Order()
	if err != nil {
		return nil, err
	}
	s := &Sim{n: n, order: order, Val: make([]uint64, len(n.Gates))}
	s.initConsts()
	return s, nil
}

func (s *Sim) initConsts() {
	for i, g := range s.n.Gates {
		switch g.Type {
		case Const0:
			s.Val[i] = 0
		case Const1:
			s.Val[i] = ^uint64(0)
		}
	}
}

// Netlist returns the simulated netlist.
func (s *Sim) Netlist() *Netlist { return s.n }

// SetPI assigns the pattern word of one primary input line.
func (s *Sim) SetPI(line int, w uint64) { s.Val[line] = w }

// evalGate computes the value of gate g from the current line values.
func (s *Sim) evalGate(id int) uint64 {
	g := &s.n.Gates[id]
	v := s.Val
	switch g.Type {
	case Buf:
		return v[g.Fanin[0]]
	case Inv:
		return ^v[g.Fanin[0]]
	case And:
		return v[g.Fanin[0]] & v[g.Fanin[1]]
	case Or:
		return v[g.Fanin[0]] | v[g.Fanin[1]]
	case Nand:
		return ^(v[g.Fanin[0]] & v[g.Fanin[1]])
	case Nor:
		return ^(v[g.Fanin[0]] | v[g.Fanin[1]])
	case Xor:
		return v[g.Fanin[0]] ^ v[g.Fanin[1]]
	case Xnor:
		return ^(v[g.Fanin[0]] ^ v[g.Fanin[1]])
	case Mux:
		sel := v[g.Fanin[2]]
		return (v[g.Fanin[0]] &^ sel) | (v[g.Fanin[1]] & sel)
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	default: // Input, DFF: held values
		return v[id]
	}
}

// Eval propagates current PI and state values through the combinational
// logic.
func (s *Sim) Eval() {
	for _, id := range s.order {
		s.Val[id] = s.evalGate(id)
	}
}

// Step evaluates combinational logic and then clocks every DFF
// (next-state := fanin value), advancing one cycle.
func (s *Sim) Step() {
	s.Eval()
	dffs := s.n.DFFs()
	next := make([]uint64, len(dffs))
	for i, d := range dffs {
		next[i] = s.Val[s.n.Gates[d].Fanin[0]]
	}
	for i, d := range dffs {
		s.Val[d] = next[i]
	}
}

// PO returns the value word of the i-th primary output.
func (s *Sim) PO(i int) uint64 { return s.Val[s.n.POs[i]] }

// POWords returns all primary output words, appending to dst.
func (s *Sim) POWords(dst []uint64) []uint64 {
	for _, po := range s.n.POs {
		dst = append(dst, s.Val[po])
	}
	return dst
}

// Pattern is a single-pattern assignment of PI and state bits used by
// higher layers (ATPG emits these).
type Pattern struct {
	PI    []byte // one value in {0,1} per PI line, index-aligned with PIs()
	State []byte // one value per DFF, index-aligned with DFFs(); nil = keep
}

// Clone deep-copies the pattern.
func (p Pattern) Clone() Pattern {
	q := Pattern{PI: append([]byte(nil), p.PI...)}
	if p.State != nil {
		q.State = append([]byte(nil), p.State...)
	}
	return q
}

// ApplyPatterns loads up to 64 patterns into the simulator lanes, returning
// the number loaded. Missing state vectors leave DFF lanes at zero.
func (s *Sim) ApplyPatterns(pats []Pattern) (int, error) {
	k := len(pats)
	if k > 64 {
		k = 64
	}
	pis := s.n.PIs()
	dffs := s.n.DFFs()
	for _, line := range pis {
		s.Val[line] = 0
	}
	for _, line := range dffs {
		s.Val[line] = 0
	}
	for lane := 0; lane < k; lane++ {
		p := pats[lane]
		if len(p.PI) != len(pis) {
			return 0, fmt.Errorf("gate: pattern has %d PI values, netlist has %d PIs", len(p.PI), len(pis))
		}
		for i, line := range pis {
			if p.PI[i] != 0 {
				s.Val[line] |= 1 << uint(lane)
			}
		}
		if p.State != nil {
			if len(p.State) != len(dffs) {
				return 0, fmt.Errorf("gate: pattern has %d state values, netlist has %d DFFs", len(p.State), len(dffs))
			}
			for i, line := range dffs {
				if p.State[i] != 0 {
					s.Val[line] |= 1 << uint(lane)
				}
			}
		}
	}
	return k, nil
}

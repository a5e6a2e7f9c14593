// Package rtlsim interprets rtl.Core designs cycle by cycle, with the
// test-mode controls transparency needs: forcing multiplexer selects and
// freezing registers (clock gating). Its purpose is verification — proving
// that the transparency paths found by internal/trans really move data
// losslessly through the RTL with the claimed latency, which is the
// foundational property of the whole SOCET method.
package rtlsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rtl"
)

// Sim is an RTL interpreter. Register and port values are word-valued
// (widths up to 64 bits).
type Sim struct {
	c      *rtl.Core
	regs   map[string]uint64
	inputs map[string]uint64
	// test-mode overrides
	muxSel     map[string]int
	frozen     map[string]bool
	loadForced map[string]bool
	// per-pass memoization
	memo    map[string]uint64
	onStack map[string]bool
	// cycles counts Step calls (nil when obs is disabled).
	cycles *obs.Counter
}

// New builds a simulator with all registers and inputs at zero.
func New(c *rtl.Core) (*Sim, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, p := range c.Ports {
		if p.Width > 64 {
			return nil, fmt.Errorf("rtlsim: port %s wider than 64 bits", p.Name)
		}
	}
	for _, r := range c.Regs {
		if r.Width > 64 {
			return nil, fmt.Errorf("rtlsim: register %s wider than 64 bits", r.Name)
		}
	}
	return &Sim{
		c:          c,
		regs:       map[string]uint64{},
		inputs:     map[string]uint64{},
		muxSel:     map[string]int{},
		frozen:     map[string]bool{},
		loadForced: map[string]bool{},
		cycles:     obs.C("rtlsim.cycles"),
	}, nil
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// SetInput drives an input port.
func (s *Sim) SetInput(port string, v uint64) error {
	p, ok := s.c.PortByName(port)
	if !ok || p.Dir != rtl.In {
		return fmt.Errorf("rtlsim: no input port %q", port)
	}
	s.inputs[port] = v & mask(p.Width)
	return nil
}

// SetReg overwrites a register's current value (test setup).
func (s *Sim) SetReg(name string, v uint64) error {
	r, ok := s.c.RegByName(name)
	if !ok {
		return fmt.Errorf("rtlsim: no register %q", name)
	}
	s.regs[name] = v & mask(r.Width)
	return nil
}

// Reg reads a register's current value.
func (s *Sim) Reg(name string) uint64 { return s.regs[name] }

// ForceMux pins a multiplexer's select in test mode (pass -1 to release).
func (s *Sim) ForceMux(name string, sel int) error {
	m, ok := s.c.MuxByName(name)
	if !ok {
		return fmt.Errorf("rtlsim: no mux %q", name)
	}
	if sel < 0 {
		delete(s.muxSel, name)
		return nil
	}
	if sel >= m.NumIn {
		return fmt.Errorf("rtlsim: mux %s select %d out of range", name, sel)
	}
	s.muxSel[name] = sel
	return nil
}

// Freeze clock-gates a register (it holds its value across Step).
func (s *Sim) Freeze(name string, frozen bool) error {
	if _, ok := s.c.RegByName(name); !ok {
		return fmt.Errorf("rtlsim: no register %q", name)
	}
	if frozen {
		s.frozen[name] = true
	} else {
		delete(s.frozen, name)
	}
	return nil
}

// ForceLoad makes a load-enabled register capture every cycle regardless
// of its ld pin — the transparency controller's load assertion.
func (s *Sim) ForceLoad(name string, forced bool) error {
	if _, ok := s.c.RegByName(name); !ok {
		return fmt.Errorf("rtlsim: no register %q", name)
	}
	if forced {
		s.loadForced[name] = true
	} else {
		delete(s.loadForced, name)
	}
	return nil
}

// Output reads an output port combinationally.
func (s *Sim) Output(port string) (uint64, error) {
	p, ok := s.c.PortByName(port)
	if !ok || p.Dir != rtl.Out {
		return 0, fmt.Errorf("rtlsim: no output port %q", port)
	}
	s.beginPass()
	return s.evalSink(port, "", p.Width), nil
}

// Step advances one clock cycle.
func (s *Sim) Step() {
	s.cycles.Inc()
	s.beginPass()
	next := make(map[string]uint64, len(s.c.Regs))
	for _, r := range s.c.Regs {
		cur := s.regs[r.Name]
		if s.frozen[r.Name] {
			next[r.Name] = cur
			continue
		}
		if r.HasLoad && !s.loadForced[r.Name] {
			if s.evalSink(r.Name, "ld", 1)&1 == 0 {
				next[r.Name] = cur
				continue
			}
		}
		next[r.Name] = s.evalSink(r.Name, "d", r.Width)
	}
	s.regs = next
}

func (s *Sim) beginPass() {
	s.memo = map[string]uint64{}
	s.onStack = map[string]bool{}
}

// evalSink assembles the value of a sink pin from its driving connections.
func (s *Sim) evalSink(comp, pin string, width int) uint64 {
	var v uint64
	for _, cn := range s.c.Conns {
		if cn.To.Comp != comp || cn.To.Pin != pin {
			continue
		}
		src := s.evalSource(cn.From.Comp, cn.From.Pin)
		part := (src >> uint(cn.From.Lo)) & mask(cn.From.Width())
		v |= part << uint(cn.To.Lo)
	}
	return v & mask(width)
}

// evalSource computes the value of a source pin (memoized per pass).
func (s *Sim) evalSource(comp, pin string) uint64 {
	key := comp + "." + pin
	if v, ok := s.memo[key]; ok {
		return v
	}
	if s.onStack[key] {
		return 0 // combinational loop: RTL validation should prevent this
	}
	s.onStack[key] = true
	defer delete(s.onStack, key)

	kind, idx, ok := s.c.Lookup(comp)
	if !ok {
		return 0
	}
	var v uint64
	switch kind {
	case rtl.KindPort:
		v = s.inputs[comp]
	case rtl.KindReg:
		v = s.regs[comp]
	case rtl.KindMux:
		m := s.c.Muxes[idx]
		sel, forced := s.muxSel[comp]
		if !forced {
			sel = int(s.evalSink(comp, "sel", m.SelWidth()))
		}
		if sel >= m.NumIn {
			sel = m.NumIn - 1
		}
		v = s.evalSink(comp, rtl.InPin(sel), m.Width)
	case rtl.KindUnit:
		v = s.evalUnit(s.c.Units[idx])
	}
	s.memo[key] = v
	return v
}

func (s *Sim) evalUnit(u rtl.Unit) uint64 {
	in := func(k int) uint64 { return s.evalSink(u.Name, rtl.InPin(k), u.Width) }
	w := mask(u.Width)
	switch u.Op {
	case rtl.OpAdd:
		return (in(0) + in(1)) & w
	case rtl.OpSub:
		return (in(0) - in(1)) & w
	case rtl.OpInc:
		return (in(0) + 1) & w
	case rtl.OpDec:
		return (in(0) - 1) & w
	case rtl.OpAnd:
		return in(0) & in(1)
	case rtl.OpOr:
		return in(0) | in(1)
	case rtl.OpXor:
		return in(0) ^ in(1)
	case rtl.OpNot:
		return ^in(0) & w
	case rtl.OpShl:
		return (in(0) << 1) & w
	case rtl.OpShr:
		return in(0) >> 1
	case rtl.OpEq:
		if in(0) == in(1) {
			return 1
		}
		return 0
	case rtl.OpDecode:
		return 1 << (in(0) & w)
	case rtl.OpAlu:
		nops := u.AluOps
		if nops < 2 {
			nops = 2
		}
		op := s.evalSink(u.Name, "op", rtl.SelBits(nops)) % uint64(nops)
		// Same roster as internal/synth.
		switch op {
		case 0:
			return (in(0) + in(1)) & w
		case 1:
			return in(0) & in(1)
		case 2:
			return in(0) | in(1)
		case 3:
			return in(0) ^ in(1)
		case 4:
			return (in(0) - in(1)) & w
		case 5:
			return ^in(0) & w
		case 6:
			return (in(0) + 1) & w
		default:
			return (in(0) << 1) & w
		}
	case rtl.OpConst:
		return u.ConstVal & w
	case rtl.OpCloud:
		// Deterministic but opaque: a hash of the inputs. The gate-level
		// structure in internal/synth is unrelated; transparency never
		// moves data through clouds, so only determinism matters here.
		h := hash64(u.Name)
		for k := 0; k < u.NumIn; k++ {
			h = mix(h ^ in(k))
		}
		return h & mask(u.OutWidth)
	}
	return 0
}

func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

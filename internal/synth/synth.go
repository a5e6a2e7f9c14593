// Package synth elaborates RTL cores into gate-level netlists and reports
// their mapped area, standing in for the in-house synthesis tool and 0.8µm
// technology mapping used in the paper (Section 6). Elaboration is
// deterministic: the same core always yields the same netlist, including
// the pseudo-random structure generated for opaque control-logic clouds.
package synth

import (
	"fmt"
	"strconv"

	"repro/internal/gate"
	"repro/internal/rtl"
)

// PinBit identifies a single bit of a component pin.
type PinBit struct {
	Comp string
	Pin  string
	Bit  int
}

// Result is the output of Synthesize.
type Result struct {
	Netlist *gate.Netlist
	// Line maps every source pin bit (input ports, register q, mux/unit
	// out) and register d bit to its netlist line.
	Line map[PinBit]int
}

// LineOf returns the netlist line of a source pin bit.
func (r *Result) LineOf(comp, pin string, bit int) (int, bool) {
	id, ok := r.Line[PinBit{comp, pin, bit}]
	return id, ok
}

type synthesizer struct {
	c     *rtl.Core
	n     *gate.Netlist
	line  map[PinBit]int
	sinks map[rtl.Pin][]int // this call's rtl.SinkConns index
	busy  map[string]bool   // components being elaborated (cycle guard)
	err   error
}

// Synthesize elaborates the core into a gate-level netlist. Input ports
// become Input gates; register bits become DFFs (with a load mux when the
// register has a load-enable); output ports become POs. Undriven sink bits
// are tied low.
func Synthesize(c *rtl.Core) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &synthesizer{
		c:     c,
		n:     &gate.Netlist{Name: c.Name},
		line:  make(map[PinBit]int, lineCount(c)),
		sinks: rtl.SinkConns(c),
		busy:  make(map[string]bool),
	}
	// Phase 1: state and input skeleton, so combinational recursion can
	// bottom out at register outputs and ports.
	for _, p := range c.Ports {
		if p.Dir != rtl.In {
			continue
		}
		for b := 0; b < p.Width; b++ {
			id := s.n.AddNamed(bitName(p.Name, b), gate.Input)
			s.line[PinBit{p.Name, "", b}] = id
		}
	}
	for _, r := range c.Regs {
		for b := 0; b < r.Width; b++ {
			// Fanin patched in phase 3; temporarily self-feeding.
			id := s.n.AddNamed(bitName(r.Name, b), gate.DFF)
			s.n.Gates[id].Fanin = []int{id}
			s.line[PinBit{r.Name, "q", b}] = id
		}
	}
	// Phase 2: primary outputs (pulls in all logic in their cones).
	for _, p := range c.Ports {
		if p.Dir != rtl.Out {
			continue
		}
		for b := 0; b < p.Width; b++ {
			id := s.sinkLine(p.Name, "", b)
			s.n.MarkPO(id, bitName(p.Name, b))
			s.line[PinBit{p.Name, "", b}] = id
		}
	}
	// Phase 3: register next-state logic.
	for _, r := range c.Regs {
		var ld int
		if r.HasLoad {
			ld = s.sinkLine(r.Name, "ld", 0)
		}
		for b := 0; b < r.Width; b++ {
			d := s.sinkLine(r.Name, "d", b)
			q := s.line[PinBit{r.Name, "q", b}]
			if r.HasLoad {
				d = s.n.Add(gate.Mux, q, d, ld)
			}
			s.n.Gates[q].Fanin = []int{d}
			s.line[PinBit{r.Name, "d", b}] = d
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	if err := s.n.Validate(); err != nil {
		return nil, err
	}
	return &Result{Netlist: s.n, Line: s.line}, nil
}

// bitName names bit b of a port or register: "name[b]".
func bitName(name string, b int) string {
	return name + "[" + strconv.Itoa(b) + "]"
}

// lineCount is the number of Line entries a core's synthesis makes:
// every port bit, register q and d bit and mux/unit output bit, plus the
// two constants.
func lineCount(c *rtl.Core) int {
	n := 2
	for _, p := range c.Ports {
		n += p.Width
	}
	for _, r := range c.Regs {
		n += 2 * r.Width
	}
	for _, m := range c.Muxes {
		n += m.Width
	}
	for _, u := range c.Units {
		n += max(u.OutWidth, u.Width)
	}
	return n
}

func (s *synthesizer) fail(format string, args ...interface{}) int {
	if s.err == nil {
		s.err = fmt.Errorf("synth: core %s: "+format, append([]interface{}{s.c.Name}, args...)...)
	}
	return s.const0()
}

func (s *synthesizer) const0() int {
	if id, ok := s.line[PinBit{"", "const0", 0}]; ok {
		return id
	}
	id := s.n.Add(gate.Const0)
	s.line[PinBit{"", "const0", 0}] = id
	return id
}

func (s *synthesizer) const1() int {
	if id, ok := s.line[PinBit{"", "const1", 0}]; ok {
		return id
	}
	id := s.n.Add(gate.Const1)
	s.line[PinBit{"", "const1", 0}] = id
	return id
}

// sinkLine resolves the line driving one bit of a sink pin, elaborating
// the driver on demand. Undriven bits tie low.
func (s *synthesizer) sinkLine(comp, pin string, bit int) int {
	for _, ci := range s.sinks[rtl.Pin{Comp: comp, Pin: pin}] {
		cn := &s.c.Conns[ci]
		if bit < cn.To.Lo || bit > cn.To.Hi {
			continue
		}
		return s.srcLine(cn.From.Comp, cn.From.Pin, cn.From.Lo+(bit-cn.To.Lo))
	}
	return s.const0()
}

// srcLine returns (elaborating on demand) the line of one bit of a source
// pin.
func (s *synthesizer) srcLine(comp, pin string, bit int) int {
	if id, ok := s.line[PinBit{comp, pin, bit}]; ok {
		return id
	}
	kind, idx, ok := s.c.Lookup(comp)
	if !ok {
		return s.fail("unknown component %q", comp)
	}
	if s.busy[comp] {
		return s.fail("combinational cycle through %s", comp)
	}
	s.busy[comp] = true
	switch kind {
	case rtl.KindMux:
		s.elabMux(s.c.Muxes[idx])
	case rtl.KindUnit:
		s.elabUnit(s.c.Units[idx])
	default:
		delete(s.busy, comp)
		return s.fail("%s.%s is not an elaboratable source", comp, pin)
	}
	delete(s.busy, comp)
	id, ok2 := s.line[PinBit{comp, pin, bit}]
	if !ok2 {
		return s.fail("elaboration of %s produced no line for %s[%d]", comp, pin, bit)
	}
	return id
}

// elabMux builds a per-bit mux tree steered by the select bits.
func (s *synthesizer) elabMux(m rtl.Mux) {
	selW := m.SelWidth()
	sel := make([]int, selW)
	for i := range sel {
		sel[i] = s.sinkLine(m.Name, "sel", i)
	}
	ins := make([]int, m.NumIn)
	for b := 0; b < m.Width; b++ {
		for k := range ins {
			ins[k] = s.sinkLine(m.Name, rtl.InPin(k), b)
		}
		s.line[PinBit{m.Name, "out", b}] = s.muxTree(ins, sel, 0)
	}
}

// muxTree recursively selects among ins using select bits from level up.
func (s *synthesizer) muxTree(ins []int, sel []int, level int) int {
	if len(ins) == 1 {
		return ins[0]
	}
	if level >= len(sel) {
		return ins[0]
	}
	// Pair up by the current (lowest) select bit.
	var next []int
	for i := 0; i < len(ins); i += 2 {
		if i+1 < len(ins) {
			next = append(next, s.n.Add(gate.Mux, ins[i], ins[i+1], sel[level]))
		} else {
			next = append(next, ins[i])
		}
	}
	return s.muxTree(next, sel, level+1)
}

func (s *synthesizer) elabUnit(u rtl.Unit) {
	inBits := func(k int) []int {
		out := make([]int, u.Width)
		pin := rtl.InPin(k)
		for b := range out {
			out[b] = s.sinkLine(u.Name, pin, b)
		}
		return out
	}
	set := func(bits []int) {
		for b, id := range bits {
			s.line[PinBit{u.Name, "out", b}] = id
		}
	}
	switch u.Op {
	case rtl.OpAdd:
		sum, _ := s.adder(inBits(0), inBits(1), s.const0())
		set(sum)
	case rtl.OpSub:
		b := inBits(1)
		nb := make([]int, len(b))
		for i, id := range b {
			nb[i] = s.n.Add(gate.Inv, id)
		}
		sum, _ := s.adder(inBits(0), nb, s.const1())
		set(sum)
	case rtl.OpInc:
		sum := s.incr(inBits(0))
		set(sum)
	case rtl.OpDec:
		a := inBits(0)
		ones := make([]int, len(a))
		for i := range ones {
			ones[i] = s.const1()
		}
		sum, _ := s.adder(a, ones, s.const0()) // a + (-1)
		set(sum)
	case rtl.OpAnd, rtl.OpOr, rtl.OpXor:
		a, b := inBits(0), inBits(1)
		t := map[rtl.UnitOp]gate.Type{rtl.OpAnd: gate.And, rtl.OpOr: gate.Or, rtl.OpXor: gate.Xor}[u.Op]
		bits := make([]int, u.Width)
		for i := range bits {
			bits[i] = s.n.Add(t, a[i], b[i])
		}
		set(bits)
	case rtl.OpNot:
		a := inBits(0)
		bits := make([]int, u.Width)
		for i := range bits {
			bits[i] = s.n.Add(gate.Inv, a[i])
		}
		set(bits)
	case rtl.OpShl:
		a := inBits(0)
		bits := make([]int, u.Width)
		bits[0] = s.const0()
		for i := 1; i < u.Width; i++ {
			bits[i] = a[i-1]
		}
		set(bits)
	case rtl.OpShr:
		a := inBits(0)
		bits := make([]int, u.Width)
		for i := 0; i < u.Width-1; i++ {
			bits[i] = a[i+1]
		}
		bits[u.Width-1] = s.const0()
		set(bits)
	case rtl.OpEq:
		a, b := inBits(0), inBits(1)
		acc := -1
		for i := range a {
			x := s.n.Add(gate.Xnor, a[i], b[i])
			if acc < 0 {
				acc = x
			} else {
				acc = s.n.Add(gate.And, acc, x)
			}
		}
		s.line[PinBit{u.Name, "out", 0}] = acc
	case rtl.OpDecode:
		a := inBits(0)
		inv := make([]int, len(a))
		for i, id := range a {
			inv[i] = s.n.Add(gate.Inv, id)
		}
		for v := 0; v < (1 << u.Width); v++ {
			acc := -1
			for i := 0; i < u.Width; i++ {
				lit := a[i]
				if v&(1<<i) == 0 {
					lit = inv[i]
				}
				if acc < 0 {
					acc = lit
				} else {
					acc = s.n.Add(gate.And, acc, lit)
				}
			}
			s.line[PinBit{u.Name, "out", v}] = acc
		}
	case rtl.OpAlu:
		s.elabAlu(u)
	case rtl.OpConst:
		bits := make([]int, u.Width)
		for i := range bits {
			if u.ConstVal&(1<<uint(i)) != 0 {
				bits[i] = s.const1()
			} else {
				bits[i] = s.const0()
			}
		}
		set(bits)
	case rtl.OpCloud:
		s.elabCloud(u)
	default:
		s.fail("unit %s: unsupported op %v", u.Name, u.Op)
	}
}

// adder builds a ripple-carry adder and returns the sum bits and carry-out.
func (s *synthesizer) adder(a, b []int, cin int) ([]int, int) {
	sum := make([]int, len(a))
	c := cin
	for i := range a {
		axb := s.n.Add(gate.Xor, a[i], b[i])
		sum[i] = s.n.Add(gate.Xor, axb, c)
		ab := s.n.Add(gate.And, a[i], b[i])
		cx := s.n.Add(gate.And, c, axb)
		c = s.n.Add(gate.Or, ab, cx)
	}
	return sum, c
}

// incr builds a half-adder chain computing a+1.
func (s *synthesizer) incr(a []int) []int {
	sum := make([]int, len(a))
	c := s.const1()
	for i := range a {
		sum[i] = s.n.Add(gate.Xor, a[i], c)
		if i < len(a)-1 {
			c = s.n.Add(gate.And, a[i], c)
		}
	}
	return sum
}

// elabAlu builds each selected operation and muxes the results by the op
// select bits. Operations are drawn from a fixed roster in order.
func (s *synthesizer) elabAlu(u rtl.Unit) {
	roster := []rtl.UnitOp{rtl.OpAdd, rtl.OpAnd, rtl.OpOr, rtl.OpXor, rtl.OpSub, rtl.OpNot, rtl.OpInc, rtl.OpShl}
	nops := u.AluOps
	if nops < 2 {
		nops = 2
	}
	if nops > len(roster) {
		nops = len(roster)
	}
	a := make([]int, u.Width)
	b := make([]int, u.Width)
	for i := 0; i < u.Width; i++ {
		a[i] = s.sinkLine(u.Name, "in0", i)
		b[i] = s.sinkLine(u.Name, "in1", i)
	}
	selW := rtl.SelBits(nops)
	sel := make([]int, selW)
	for i := range sel {
		sel[i] = s.sinkLine(u.Name, "op", i)
	}
	results := make([][]int, nops)
	for k := 0; k < nops; k++ {
		switch roster[k] {
		case rtl.OpAdd:
			results[k], _ = s.adder(a, b, s.const0())
		case rtl.OpSub:
			nb := make([]int, len(b))
			for i, id := range b {
				nb[i] = s.n.Add(gate.Inv, id)
			}
			results[k], _ = s.adder(a, nb, s.const1())
		case rtl.OpAnd, rtl.OpOr, rtl.OpXor:
			t := map[rtl.UnitOp]gate.Type{rtl.OpAnd: gate.And, rtl.OpOr: gate.Or, rtl.OpXor: gate.Xor}[roster[k]]
			bits := make([]int, u.Width)
			for i := range bits {
				bits[i] = s.n.Add(t, a[i], b[i])
			}
			results[k] = bits
		case rtl.OpNot:
			bits := make([]int, u.Width)
			for i := range bits {
				bits[i] = s.n.Add(gate.Inv, a[i])
			}
			results[k] = bits
		case rtl.OpInc:
			results[k] = s.incr(a)
		case rtl.OpShl:
			bits := make([]int, u.Width)
			bits[0] = s.const0()
			for i := 1; i < u.Width; i++ {
				bits[i] = a[i-1]
			}
			results[k] = bits
		}
	}
	for bit := 0; bit < u.Width; bit++ {
		ins := make([]int, nops)
		for k := range ins {
			ins[k] = results[k][bit]
		}
		s.line[PinBit{u.Name, "out", bit}] = s.muxTree(ins, sel, 0)
	}
}

// elabCloud synthesizes an opaque control cloud: a deterministic
// pseudo-random DAG of two-input gates seeded by the core and unit names.
// Roughly two thirds of the budget builds random logic; the rest folds
// every otherwise-dangling line into balanced XOR collector trees feeding
// the outputs, so the cloud's gates all sit in observable cones (dangling
// random logic would read as untestable-fault noise in the ATPG columns).
func (s *synthesizer) elabCloud(u rtl.Unit) {
	rng := newSplitMix(hashNames(s.c.Name, u.Name))
	var pool []int
	for k := 0; k < u.NumIn; k++ {
		pin := rtl.InPin(k)
		for b := 0; b < u.Width; b++ {
			id := s.sinkLine(u.Name, pin, b)
			// Constant (undriven) bits would breed dead minterms and
			// untestable logic; clouds draw only from live signals.
			if t := s.n.Gates[id].Type; t == gate.Const0 || t == gate.Const1 {
				continue
			}
			pool = append(pool, id)
		}
	}
	if len(pool) == 0 {
		pool = append(pool, s.const0())
	}
	inputs := len(pool)
	if u.CloudAndBias {
		s.elabDecoderCloud(u, pool, rng)
		return
	}
	// XOR-family gates are weighted up: random AND/OR networks accumulate
	// logical redundancy (absorption), which inflates the untestable
	// fault count far beyond what real control logic shows.
	types := []gate.Type{
		gate.Xor, gate.Xnor, gate.Xor,
		gate.And, gate.Or, gate.Nand, gate.Nor, gate.Inv,
	}
	foldType := gate.Xor
	gatesWanted := u.CloudGates
	if gatesWanted < 2*u.OutWidth {
		gatesWanted = 2 * u.OutWidth
	}
	randomGates := gatesWanted * 2 / 3
	fanout := make(map[int]int)
	for g := 0; g < randomGates; g++ {
		t := types[int(rng.next()%uint64(len(types)))]
		ai := int(rng.next() % uint64(len(pool)))
		a := pool[ai]
		var id int
		if t == gate.Inv {
			id = s.n.Add(gate.Inv, a)
		} else {
			// Distinct fanins: gate(x,x) degenerates to a constant or an
			// inverter and would show up as untestable-fault noise.
			bi := int(rng.next() % uint64(len(pool)))
			if bi == ai && len(pool) > 1 {
				bi = (bi + 1) % len(pool)
			}
			b := pool[bi]
			id = s.n.Add(t, a, b)
			fanout[b]++
		}
		fanout[a]++
		pool = append(pool, id)
	}
	// Collect dangling created lines and fold them, round-robin, into one
	// XOR tree per output bit.
	var dangling []int
	for _, id := range pool[inputs:] {
		if fanout[id] == 0 {
			dangling = append(dangling, id)
		}
	}
	if len(dangling) == 0 {
		dangling = pool[len(pool)-1:]
	}
	acc := make([]int, u.OutWidth)
	for i := range acc {
		acc[i] = dangling[i%len(dangling)]
	}
	for i, id := range dangling {
		b := i % u.OutWidth
		if acc[b] == id && i < u.OutWidth {
			continue // seeded above
		}
		acc[b] = s.n.Add(foldType, acc[b], id)
	}
	for b := 0; b < u.OutWidth; b++ {
		s.line[PinBit{u.Name, "out", b}] = acc[b]
	}
}

// elabDecoderCloud synthesizes decoder-like logic (CloudAndBias): each
// output bit is an OR of minterms, each minterm an AND of a few randomly
// chosen, randomly inverted input literals. This is the structure of real
// address and seven-segment decoders: fully testable by deterministic
// ATPG (set the literals), but nearly opaque to random functional
// patterns — each minterm fires with probability 2^-k — which is what
// makes chips without chip-level DFT nearly untestable (Table 3's "Orig."
// column).
func (s *synthesizer) elabDecoderCloud(u rtl.Unit, pool []int, rng *splitMix) {
	gatesWanted := u.CloudGates
	if gatesWanted < 2*u.OutWidth {
		gatesWanted = 2 * u.OutWidth
	}
	// Few, deep minterms: wide ANDs are what starve random excitation.
	// Too many minterms per output breeds OR-masking redundancy (shared
	// literals force sibling minterms high), so the budget goes into
	// literal depth k rather than minterm count.
	minterms := 3
	k := gatesWanted * 2 / (u.OutWidth * minterms * 3)
	if k < 3 {
		k = 3
	}
	if k > 8 {
		k = 8
	}
	// Minterms over nearly the whole variable set overlap so heavily that
	// OR-side masking makes much of the logic genuinely redundant; keep
	// some slack.
	if k > 3*len(pool)/4 {
		k = 3 * len(pool) / 4
	}
	if k < 1 {
		k = 1
	}
	inv := map[int]int{} // cached inverted literals
	literal := func(id int) int {
		if rng.next()&1 == 0 {
			return id
		}
		if n, ok := inv[id]; ok {
			return n
		}
		n := s.n.Add(gate.Inv, id)
		inv[id] = n
		return n
	}
	// Each minterm samples k distinct variables: the same variable twice
	// with opposite polarity would make the minterm constant-0 and its
	// whole cone untestable.
	perm := make([]int, len(pool))
	for i := range perm {
		perm[i] = i
	}
	sample := func() []int {
		for i := len(perm) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm[:k]
	}
	for b := 0; b < u.OutWidth; b++ {
		acc := -1
		for m := 0; m < minterms; m++ {
			vars := sample()
			term := literal(pool[vars[0]])
			for i := 1; i < k; i++ {
				term = s.n.Add(gate.And, term, literal(pool[vars[i]]))
			}
			if acc < 0 {
				acc = term
			} else {
				acc = s.n.Add(gate.Or, acc, term)
			}
		}
		s.line[PinBit{u.Name, "out", b}] = acc
	}
}

// hashNames is FNV-1a over the concatenated names.
func hashNames(parts ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	return h
}

// splitMix is a tiny deterministic PRNG (SplitMix64).
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (r *splitMix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

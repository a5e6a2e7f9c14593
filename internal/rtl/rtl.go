// Package rtl models register-transfer-level cores: ports, registers,
// multiplexers and functional units connected by bit-sliced nets. It is the
// input representation for HSCAN insertion (internal/hscan), transparency
// analysis (internal/trans) and gate-level synthesis (internal/synth),
// mirroring the structural core descriptions used by the paper (Figure 3).
package rtl

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
)

// Dir is a port direction.
type Dir int

// Port directions.
const (
	In Dir = iota
	Out
)

func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Port is a core boundary pin group.
type Port struct {
	Name    string
	Dir     Dir
	Width   int
	Control bool // control signal (e.g. Reset, Interrupt, Read, Write)
}

// Register is a clocked storage element of Width bits. Registers with
// HasLoad have a 1-bit load-enable pin "ld"; they hold their value when the
// pin is 0, which transparency analysis exploits for free freeze logic.
type Register struct {
	Name    string
	Width   int
	HasLoad bool
}

// Mux is an NumIn-to-1 multiplexer of Width bits with pins
// "in0".."in<NumIn-1>", "sel" and "out".
type Mux struct {
	Name  string
	Width int
	NumIn int
}

// SelWidth returns the width of the mux select pin.
func (m Mux) SelWidth() int { return SelBits(m.NumIn) }

// SelBits returns the number of bits needed to select among n choices.
func SelBits(n int) int {
	w := 0
	for v := n - 1; v > 0; v >>= 1 {
		w++
	}
	if w == 0 {
		w = 1
	}
	return w
}

// UnitOp identifies the function computed by a functional Unit.
type UnitOp int

// Functional unit operations. Cloud is an opaque combinational cloud of
// approximately CloudGates gates (used to model control logic and other
// random logic; the gate structure is generated deterministically from the
// unit name by internal/synth). Alu is a multi-function unit selecting
// among AluOps operations.
const (
	OpAdd UnitOp = iota
	OpSub
	OpInc
	OpDec
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl // shift left by one (wiring plus a tie)
	OpShr
	OpEq     // equality comparator: out width 1
	OpDecode // binary decoder: out width 1<<Width
	OpAlu
	OpConst // constant source: pins "out" only
	OpCloud
)

var unitOpNames = map[UnitOp]string{
	OpAdd: "add", OpSub: "sub", OpInc: "inc", OpDec: "dec",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpEq: "eq", OpDecode: "decode",
	OpAlu: "alu", OpConst: "const", OpCloud: "cloud",
}

func (o UnitOp) String() string {
	if s, ok := unitOpNames[o]; ok {
		return s
	}
	return fmt.Sprintf("UnitOp(%d)", int(o))
}

// Unit is a combinational functional unit. Width is the data input width;
// pins are "in0".."in<NumIn-1>" and "out" (width OutWidth).
type Unit struct {
	Name       string
	Op         UnitOp
	Width      int
	NumIn      int
	OutWidth   int
	AluOps     int // for OpAlu: number of selectable operations
	CloudGates int // for OpCloud: approximate synthesized gate count
	// CloudAndBias makes the cloud AND/NOR-dominated with AND-collector
	// trees — decoder-like logic that masks random activity (real
	// address decoders and 7-segment decoders behave this way), in
	// contrast to the default XOR-rich cloud.
	CloudAndBias bool
	ConstVal     uint64 // for OpConst
}

// CompKind distinguishes component classes.
type CompKind int

// Component kinds.
const (
	KindPort CompKind = iota
	KindReg
	KindMux
	KindUnit
)

func (k CompKind) String() string {
	switch k {
	case KindPort:
		return "port"
	case KindReg:
		return "reg"
	case KindMux:
		return "mux"
	case KindUnit:
		return "unit"
	}
	return fmt.Sprintf("CompKind(%d)", int(k))
}

// Endpoint names a contiguous bit slice of a component pin. Lo and Hi are
// inclusive bit indices with Lo <= Hi. Pin is "" for ports.
type Endpoint struct {
	Comp   string
	Pin    string
	Lo, Hi int
}

// Width returns the number of bits in the slice.
func (e Endpoint) Width() int { return e.Hi - e.Lo + 1 }

func (e Endpoint) String() string {
	s := e.Comp
	if e.Pin != "" {
		s += "." + e.Pin
	}
	if e.Lo == e.Hi {
		return fmt.Sprintf("%s[%d]", s, e.Lo)
	}
	return fmt.Sprintf("%s[%d:%d]", s, e.Hi, e.Lo)
}

// Conn is a directed net from a source slice to an equal-width sink slice.
type Conn struct {
	From, To Endpoint
}

func (c Conn) String() string { return c.From.String() + " -> " + c.To.String() }

// Pin names one pin of a component; Pin is "" for a port.
type Pin struct {
	Comp, Pin string
}

// SinkConns indexes the core's connections by sink pin: for each driven
// pin, the indices into c.Conns of the connections into it, in Conns
// order. The index belongs to the caller; the core keeps no copy.
func SinkConns(c *Core) map[Pin][]int {
	out := make(map[Pin][]int, len(c.Conns))
	for i, cn := range c.Conns {
		k := Pin{cn.To.Comp, cn.To.Pin}
		out[k] = append(out[k], i)
	}
	return out
}

// Core is an RTL core.
type Core struct {
	Name  string
	Ports []Port
	Regs  []Register
	Muxes []Mux
	Units []Unit
	Conns []Conn

	index map[string]compRef // built by Build, Validate and Clone; else by the first Lookup
}

// Clone copies the core's component and connection lists and its name
// index, so the copy can be extended or rewired without touching c, and
// Lookup on the copy only reads. Validate indexes components added to
// the copy.
func (c *Core) Clone() *Core {
	return &Core{
		Name:  c.Name,
		Ports: append([]Port(nil), c.Ports...),
		Regs:  append([]Register(nil), c.Regs...),
		Muxes: append([]Mux(nil), c.Muxes...),
		Units: append([]Unit(nil), c.Units...),
		Conns: append([]Conn(nil), c.Conns...),
		index: maps.Clone(c.index),
	}
}

type compRef struct {
	kind CompKind
	idx  int
}

// buildIndex (re)builds the name index. It reports duplicate names.
func (c *Core) buildIndex() error {
	c.index = make(map[string]compRef, len(c.Ports)+len(c.Regs)+len(c.Muxes)+len(c.Units))
	add := func(name string, r compRef) error {
		if name == "" {
			return fmt.Errorf("rtl: core %s: empty component name", c.Name)
		}
		if _, dup := c.index[name]; dup {
			return fmt.Errorf("rtl: core %s: duplicate component name %q", c.Name, name)
		}
		c.index[name] = r
		return nil
	}
	for i, p := range c.Ports {
		if err := add(p.Name, compRef{KindPort, i}); err != nil {
			return err
		}
	}
	for i, r := range c.Regs {
		if err := add(r.Name, compRef{KindReg, i}); err != nil {
			return err
		}
	}
	for i, m := range c.Muxes {
		if err := add(m.Name, compRef{KindMux, i}); err != nil {
			return err
		}
	}
	for i, u := range c.Units {
		if err := add(u.Name, compRef{KindUnit, i}); err != nil {
			return err
		}
	}
	return nil
}

// Lookup finds a component by name.
func (c *Core) Lookup(name string) (CompKind, int, bool) {
	if c.index == nil {
		if err := c.buildIndex(); err != nil {
			return 0, 0, false
		}
	}
	r, ok := c.index[name]
	return r.kind, r.idx, ok
}

// PortByName returns the named port.
func (c *Core) PortByName(name string) (Port, bool) {
	k, i, ok := c.Lookup(name)
	if !ok || k != KindPort {
		return Port{}, false
	}
	return c.Ports[i], true
}

// RegByName returns the named register.
func (c *Core) RegByName(name string) (Register, bool) {
	k, i, ok := c.Lookup(name)
	if !ok || k != KindReg {
		return Register{}, false
	}
	return c.Regs[i], true
}

// MuxByName returns the named mux.
func (c *Core) MuxByName(name string) (Mux, bool) {
	k, i, ok := c.Lookup(name)
	if !ok || k != KindMux {
		return Mux{}, false
	}
	return c.Muxes[i], true
}

// InPin returns the name of data input k of a mux or unit: "in<k>".
func InPin(k int) string {
	if k >= 0 && k < len(inPinNames) {
		return inPinNames[k]
	}
	return "in" + strconv.Itoa(k)
}

// inPinNames holds InPin(k) for every input a core script can declare,
// so the synthesis and path walks that name inputs by index allocate no
// strings.
var inPinNames = func() []string {
	out := make([]string, ScriptMaxWidth)
	for k := range out {
		out[k] = "in" + strconv.Itoa(k)
	}
	return out
}()

// inPinIndex parses an InPin name: "in" and k in decimal, without a sign,
// a leading zero or anything after it. Any other spelling ("in01", "in+1",
// "in1x") is a different pin, so it must not resolve to input k.
func inPinIndex(pin string) (int, bool) {
	d, ok := strings.CutPrefix(pin, "in")
	if !ok || d == "" || (d[0] == '0' && d != "0") {
		return 0, false
	}
	for i := 0; i < len(d); i++ {
		if d[i] < '0' || d[i] > '9' {
			return 0, false
		}
	}
	k, err := strconv.Atoi(d)
	return k, err == nil
}

// PinWidth returns the width of a component pin, or an error for unknown
// pins. Output pins are sources; input pins are sinks.
func (c *Core) PinWidth(comp, pin string) (int, error) {
	_, w, err := c.pin(comp, pin)
	return w, err
}

// pin resolves comp.pin to its component and width.
func (c *Core) pin(comp, pin string) (compRef, int, error) {
	k, i, ok := c.Lookup(comp)
	if !ok {
		return compRef{}, 0, fmt.Errorf("rtl: core %s: unknown component %q", c.Name, comp)
	}
	r := compRef{k, i}
	switch k {
	case KindPort:
		if pin != "" {
			return r, 0, fmt.Errorf("rtl: port %s has no pin %q", comp, pin)
		}
		return r, c.Ports[i].Width, nil
	case KindReg:
		reg := c.Regs[i]
		switch pin {
		case "d", "q":
			return r, reg.Width, nil
		case "ld":
			if !reg.HasLoad {
				return r, 0, fmt.Errorf("rtl: register %s has no load pin", comp)
			}
			return r, 1, nil
		}
		return r, 0, fmt.Errorf("rtl: register %s: unknown pin %q", comp, pin)
	case KindMux:
		m := c.Muxes[i]
		if pin == "out" {
			return r, m.Width, nil
		}
		if pin == "sel" {
			return r, m.SelWidth(), nil
		}
		if n, ok := inPinIndex(pin); ok && n < m.NumIn {
			return r, m.Width, nil
		}
		return r, 0, fmt.Errorf("rtl: mux %s: unknown pin %q", comp, pin)
	case KindUnit:
		u := c.Units[i]
		if pin == "out" {
			if u.OutWidth > 0 {
				return r, u.OutWidth, nil
			}
			return r, u.Width, nil
		}
		if pin == "op" && u.Op == OpAlu {
			return r, SelBits(u.AluOps), nil
		}
		if n, ok := inPinIndex(pin); ok && n < u.NumIn {
			return r, u.Width, nil
		}
		return r, 0, fmt.Errorf("rtl: unit %s: unknown pin %q", comp, pin)
	}
	return r, 0, fmt.Errorf("rtl: core %s: bad component kind", c.Name)
}

// isSink reports whether pin of component r is a signal sink (an input
// pin of a component, or an output port of the core).
func (c *Core) isSink(r compRef, pin string) bool {
	switch r.kind {
	case KindPort:
		return c.Ports[r.idx].Dir == Out
	case KindReg:
		return pin == "d" || pin == "ld"
	case KindMux, KindUnit:
		return pin != "out"
	}
	return false
}

// isSource reports whether pin of component r is a signal source.
func (c *Core) isSource(r compRef, pin string) bool {
	switch r.kind {
	case KindPort:
		return c.Ports[r.idx].Dir == In
	case KindReg:
		return pin == "q"
	case KindMux, KindUnit:
		return pin == "out"
	}
	return false
}

// Validate checks structural well-formedness: unique names, legal pin
// references, width-matched connections, and that every sink bit is driven
// at most once. Sinks left undriven are permitted (synth ties them low).
//
// Each connection is checked in turn: both pins and slices, the widths,
// the source, the sink, then its sink bits, so the first error reported
// is the first connection's first failed check.
func (c *Core) Validate() error {
	if err := c.buildIndex(); err != nil {
		return err
	}
	// drivers holds one entry per bit of each driven sink pin: 1 + the
	// index of the connection driving it, 0 while the bit is undriven.
	drivers := make(map[Pin][]int, len(c.Conns))
	for ci, cn := range c.Conns {
		var refs [2]compRef
		var widths [2]int
		for j, ep := range [2]Endpoint{cn.From, cn.To} {
			r, w, err := c.pin(ep.Comp, ep.Pin)
			if err != nil {
				return fmt.Errorf("rtl: core %s: %s: %v", c.Name, cn, err)
			}
			if ep.Lo < 0 || ep.Hi >= w || ep.Lo > ep.Hi {
				return fmt.Errorf("rtl: core %s: %s: slice %s out of range (pin width %d)", c.Name, cn, ep, w)
			}
			refs[j], widths[j] = r, w
		}
		if cn.From.Width() != cn.To.Width() {
			return fmt.Errorf("rtl: core %s: %s: width mismatch %d vs %d", c.Name, cn, cn.From.Width(), cn.To.Width())
		}
		if !c.isSource(refs[0], cn.From.Pin) {
			return fmt.Errorf("rtl: core %s: %s: %s is not a source", c.Name, cn, cn.From)
		}
		if !c.isSink(refs[1], cn.To.Pin) {
			return fmt.Errorf("rtl: core %s: %s: %s is not a sink", c.Name, cn, cn.To)
		}
		k := Pin{cn.To.Comp, cn.To.Pin}
		bits := drivers[k]
		if bits == nil {
			bits = make([]int, widths[1])
			drivers[k] = bits
		}
		for b := cn.To.Lo; b <= cn.To.Hi; b++ {
			if prev := bits[b]; prev != 0 {
				return fmt.Errorf("rtl: core %s: %s.%s[%d] driven by both %s and %s", c.Name, cn.To.Comp, cn.To.Pin, b, c.Conns[prev-1], cn)
			}
			bits[b] = ci + 1
		}
	}
	return nil
}

// Inputs returns the data input ports in declaration order.
func (c *Core) Inputs() []Port {
	var out []Port
	for _, p := range c.Ports {
		if p.Dir == In {
			out = append(out, p)
		}
	}
	return out
}

// Outputs returns the output ports in declaration order.
func (c *Core) Outputs() []Port {
	var out []Port
	for _, p := range c.Ports {
		if p.Dir == Out {
			out = append(out, p)
		}
	}
	return out
}

// FFCount returns the total number of register bits in the core.
func (c *Core) FFCount() int {
	n := 0
	for _, r := range c.Regs {
		n += r.Width
	}
	return n
}

// InputBits returns the total number of input port bits.
func (c *Core) InputBits() int {
	n := 0
	for _, p := range c.Ports {
		if p.Dir == In {
			n += p.Width
		}
	}
	return n
}

// OutputBits returns the total number of output port bits.
func (c *Core) OutputBits() int {
	n := 0
	for _, p := range c.Ports {
		if p.Dir == Out {
			n += p.Width
		}
	}
	return n
}

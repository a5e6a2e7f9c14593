package atpg

import (
	"math/bits"
	"slices"

	"repro/internal/gate"
	"repro/internal/obs"
)

// outcome of a PODEM run.
type outcome int

const (
	outDetected outcome = iota
	outUntestable
	outAborted
)

// engine holds per-netlist PODEM state, reused across faults.
//
// Implication is incremental. Each fault starts from the all-X good state
// (every controllable line unassigned), precomputed once. Assigning or
// flipping a controllable line queues its fanouts, and imply
// re-evaluates, in evaluation order, only gates with a fanin that
// changed. Faulty values differ from good ones only inside the fault's
// forward cone, so they are computed only there; everywhere else fv
// mirrors gv. Every value change goes on a trail, and a backtrack undoes
// the trail back to the flipped decision instead of re-implying.
type engine struct {
	n       *gate.Netlist
	order   []int
	topoPos []int32 // position in order; -1 for sources
	// the netlist compiled by position in order: each gate's type and its
	// fanin lines (slots the type does not use repeat fanin 0, which its
	// truth table ignores).
	typ []byte
	fin [][3]int32
	// combinational fanouts of each line, as positions in order:
	// foList[foOff[line]:foOff[line+1]].
	foOff, foList []int32
	// good and faulty three-valued line values, and the all-X good state.
	gv, fv, gvX []byte
	// controllable lines (PIs, then DFF outputs under full scan), each
	// line's index among them (-1 if not controllable), and the current
	// assignment.
	ctl    []int
	ctlIdx []int32
	assign []byte
	// observable lines: POs plus DFF data inputs (scan capture).
	isObs   []bool
	obsDist []int // min fanout hops from each line to an observable
	// SCOAP-style controllability costs.
	cc0, cc1 []int
	// constant source lines (not in the evaluation order).
	consts []int

	// current fault under test.
	f         gate.Fault
	site      int
	victimDFF bool
	stem      int // line forced to f.Stuck in the faulty circuit, or -1
	victim    int // gate whose fanin f.Branch reads f.Stuck, or -1
	// the fault's forward cone in topological order: the injection site
	// first, then its combinational successors from cone[coneGates:] on.
	// inCone[i] == coneEp marks the members.
	cone      []int
	coneGates int
	coneObs   []int // observable cone members
	inCone    []uint32
	coneEp    uint32

	// event queue: bit p of pending marks the gate at position p as
	// waiting for evaluation; no word outside pendLo..pendHi has a bit
	// set.
	pending        []uint64
	pendLo, pendHi int
	// every line value change since reset, oldest first.
	trail []change

	// search buffers, reused across decisions and faults.
	stack    []decision
	frontier []int
	dfs      []int
	seen     []uint32
	seenEp   uint32

	// observability hooks (nil when obs is disabled; Add on nil is a
	// no-op, so the search pays one pointer check per podem run).
	cBacktracks, cImplications *obs.Counter
}

// change is one trail entry: a line and its values before it changed.
type change struct {
	line   int32
	gv, fv byte
}

// truth holds each gate type's three-valued function of its fanin
// values a, b and c, at index 9a+3b+c.
var truth = func() (t [gate.DFF + 1][27]byte) {
	for typ := range t {
		for i := range t[typ] {
			t[typ][i] = eval3(gate.Type(typ), byte(i/9), byte(i/3%3), byte(i%3))
		}
	}
	return t
}()

func newEngine(n *gate.Netlist) (*engine, error) {
	order, err := n.Order()
	if err != nil {
		return nil, err
	}
	ng := len(n.Gates)
	e := &engine{
		n:       n,
		order:   order,
		topoPos: make([]int32, ng),
		typ:     make([]byte, len(order)),
		fin:     make([][3]int32, len(order)),
		foOff:   make([]int32, ng+1),
		gv:      make([]byte, ng),
		fv:      make([]byte, ng),
		gvX:     make([]byte, ng),
		ctlIdx:  make([]int32, ng),
		isObs:   make([]bool, ng),
		inCone:  make([]uint32, ng),
		pending: make([]uint64, (len(order)+63)/64),
		seen:    make([]uint32, ng),
	}
	e.pendLo, e.pendHi = len(e.pending), -1
	for i := range e.topoPos {
		e.topoPos[i] = -1
		e.ctlIdx[i] = -1
	}
	for pos, id := range order {
		e.topoPos[id] = int32(pos)
		g := &n.Gates[id]
		e.typ[pos] = byte(g.Type)
		for s := range e.fin[pos] {
			e.fin[pos][s] = int32(g.Fanin[0])
		}
		for s, f := range g.Fanin {
			e.fin[pos][s] = int32(f)
			e.foOff[f+1]++
		}
	}
	// Fanout lists in CSR form: count, prefix-sum, fill in position order.
	for i := 1; i <= ng; i++ {
		e.foOff[i] += e.foOff[i-1]
	}
	e.foList = make([]int32, e.foOff[ng])
	next := slices.Clone(e.foOff[:ng])
	for pos, id := range order {
		for _, f := range n.Gates[id].Fanin {
			e.foList[next[f]] = int32(pos)
			next[f]++
		}
	}
	for _, pi := range n.PIs() {
		e.ctlIdx[pi] = int32(len(e.ctl))
		e.ctl = append(e.ctl, pi)
	}
	for _, d := range n.DFFs() {
		e.ctlIdx[d] = int32(len(e.ctl))
		e.ctl = append(e.ctl, d)
	}
	e.assign = make([]byte, len(e.ctl))
	for _, po := range n.POs {
		e.isObs[po] = true
	}
	for _, d := range n.DFFs() {
		e.isObs[n.Gates[d].Fanin[0]] = true
	}
	for i, g := range n.Gates {
		if g.Type == gate.Const0 || g.Type == gate.Const1 {
			e.consts = append(e.consts, i)
		}
	}
	e.computeObsDist()
	e.computeControllability()
	e.computeAllX()
	e.cBacktracks = obs.C("atpg.backtracks")
	e.cImplications = obs.C("atpg.implications")
	return e, nil
}

// fanouts returns the positions in order of line's combinational fanouts.
func (e *engine) fanouts(line int) []int32 {
	return e.foList[e.foOff[line]:e.foOff[line+1]]
}

func (e *engine) computeObsDist() {
	const inf = 1 << 30
	e.obsDist = make([]int, len(e.n.Gates))
	var queue []int
	for line, o := range e.isObs {
		if o {
			queue = append(queue, line)
		} else {
			e.obsDist[line] = inf
		}
	}
	// BFS backwards from observables over fanin edges.
	for len(queue) > 0 {
		line := queue[0]
		queue = queue[1:]
		for _, f := range e.n.Gates[line].Fanin {
			if e.obsDist[f] > e.obsDist[line]+1 {
				e.obsDist[f] = e.obsDist[line] + 1
				queue = append(queue, f)
			}
		}
	}
}

// computeControllability assigns simplified SCOAP CC0/CC1 costs.
func (e *engine) computeControllability() {
	const inf = 1 << 28
	e.cc0 = make([]int, len(e.n.Gates))
	e.cc1 = make([]int, len(e.n.Gates))
	for i := range e.cc0 {
		e.cc0[i], e.cc1[i] = inf, inf
	}
	for _, c := range e.ctl {
		e.cc0[c], e.cc1[c] = 1, 1
	}
	// Constant sources sit outside the evaluation order; pin their costs
	// here (one value free, the other unreachable).
	for _, id := range e.consts {
		if e.n.Gates[id].Type == gate.Const1 {
			e.cc1[id] = 0
		} else {
			e.cc0[id] = 0
		}
	}
	for _, id := range e.order {
		g := &e.n.Gates[id]
		in := g.Fanin
		switch g.Type {
		case gate.Buf:
			e.cc0[id] = e.cc0[in[0]] + 1
			e.cc1[id] = e.cc1[in[0]] + 1
		case gate.Inv:
			e.cc0[id] = e.cc1[in[0]] + 1
			e.cc1[id] = e.cc0[in[0]] + 1
		case gate.And:
			e.cc0[id] = min(e.cc0[in[0]], e.cc0[in[1]]) + 1
			e.cc1[id] = e.cc1[in[0]] + e.cc1[in[1]] + 1
		case gate.Nand:
			e.cc1[id] = min(e.cc0[in[0]], e.cc0[in[1]]) + 1
			e.cc0[id] = e.cc1[in[0]] + e.cc1[in[1]] + 1
		case gate.Or:
			e.cc1[id] = min(e.cc1[in[0]], e.cc1[in[1]]) + 1
			e.cc0[id] = e.cc0[in[0]] + e.cc0[in[1]] + 1
		case gate.Nor:
			e.cc0[id] = min(e.cc1[in[0]], e.cc1[in[1]]) + 1
			e.cc1[id] = e.cc0[in[0]] + e.cc0[in[1]] + 1
		case gate.Xor, gate.Xnor:
			a0, a1 := e.cc0[in[0]], e.cc1[in[0]]
			b0, b1 := e.cc0[in[1]], e.cc1[in[1]]
			same := min(a0+b0, a1+b1) + 1
			diff := min(a0+b1, a1+b0) + 1
			if g.Type == gate.Xor {
				e.cc0[id], e.cc1[id] = same, diff
			} else {
				e.cc0[id], e.cc1[id] = diff, same
			}
		case gate.Mux:
			s0, s1 := e.cc0[in[2]], e.cc1[in[2]]
			e.cc0[id] = min(s0+e.cc0[in[0]], s1+e.cc0[in[1]]) + 1
			e.cc1[id] = min(s0+e.cc1[in[0]], s1+e.cc1[in[1]]) + 1
		case gate.Const0:
			e.cc0[id] = 0
		case gate.Const1:
			e.cc1[id] = 0
		}
	}
}

// computeAllX evaluates the good circuit with every controllable line
// unassigned: constants still decide some gates.
func (e *engine) computeAllX() {
	for i := range e.gvX {
		e.gvX[i] = xx
	}
	for _, id := range e.consts {
		e.gvX[id] = lo
		if e.n.Gates[id].Type == gate.Const1 {
			e.gvX[id] = hi
		}
	}
	for pos, id := range e.order {
		in := &e.fin[pos]
		e.gvX[id] = truth[e.typ[pos]][9*int(e.gvX[in[0]])+3*int(e.gvX[in[1]])+int(e.gvX[in[2]])]
	}
}

// three-valued operators.
func and3(a, b byte) byte {
	if a == lo || b == lo {
		return lo
	}
	if a == hi && b == hi {
		return hi
	}
	return xx
}

func or3(a, b byte) byte {
	if a == hi || b == hi {
		return hi
	}
	if a == lo && b == lo {
		return lo
	}
	return xx
}

func inv3(a byte) byte {
	switch a {
	case lo:
		return hi
	case hi:
		return lo
	}
	return xx
}

func xor3(a, b byte) byte {
	if a == xx || b == xx {
		return xx
	}
	return a ^ b
}

func mux3(a, b, s byte) byte {
	switch s {
	case lo:
		return a
	case hi:
		return b
	}
	if a == b && a != xx {
		return a
	}
	return xx
}

func eval3(t gate.Type, a, b, c byte) byte {
	switch t {
	case gate.Buf:
		return a
	case gate.Inv:
		return inv3(a)
	case gate.And:
		return and3(a, b)
	case gate.Or:
		return or3(a, b)
	case gate.Nand:
		return inv3(and3(a, b))
	case gate.Nor:
		return inv3(or3(a, b))
	case gate.Xor:
		return xor3(a, b)
	case gate.Xnor:
		return inv3(xor3(a, b))
	case gate.Mux:
		return mux3(a, b, c)
	case gate.Const0:
		return lo
	case gate.Const1:
		return hi
	}
	return xx
}

// reset starts fault f from the all-X state: no controllable line is
// assigned, and the fault is injected into the faulty circuit.
//
// A stem fault is injected on a controllable line or a combinational
// gate; a constant line keeps its value. A branch fault is injected at
// its victim gate, except when the victim is a DFF: the corrupted capture
// is then observed directly (see detected) and no line diverges.
func (e *engine) reset(f gate.Fault) {
	e.f = f
	e.site = e.n.FaultSite(f)
	e.victimDFF = f.Branch >= 0 && e.n.Gates[f.Line].Type == gate.DFF
	for i := range e.assign {
		e.assign[i] = xx
	}
	// An aborted search leaves its last flip queued.
	for w := e.pendLo; w <= e.pendHi; w++ {
		e.pending[w] = 0
	}
	e.pendLo, e.pendHi = len(e.pending), -1
	e.trail = e.trail[:0]
	copy(e.gv, e.gvX)
	copy(e.fv, e.gvX)
	e.stem, e.victim = -1, -1
	switch comb := e.topoPos[f.Line] >= 0; {
	case f.Branch < 0 && (comb || e.ctlIdx[f.Line] >= 0):
		e.stem = f.Line
	case f.Branch >= 0 && comb:
		e.victim = f.Line
	}
	e.buildCone()
	if e.stem >= 0 && e.fv[e.stem] != f.Stuck {
		e.fv[e.stem] = f.Stuck
		e.queueFanouts(e.stem)
	}
	if e.victim >= 0 {
		e.queue(e.topoPos[e.victim])
	}
}

// buildCone collects the forward cone of the injected line, sorted into
// the evaluation order so that D-frontier scans list gates exactly as a
// scan of the whole netlist would.
func (e *engine) buildCone() {
	e.coneEp++
	if e.coneEp == 0 { // the stamps wrapped: forget every old one
		clear(e.inCone)
		e.coneEp = 1
	}
	e.cone, e.coneObs = e.cone[:0], e.coneObs[:0]
	root := e.stem
	if root < 0 {
		root = e.victim
	}
	if root < 0 {
		e.coneGates = 0
		return
	}
	e.inCone[root] = e.coneEp
	e.cone = append(e.cone, root)
	for i := 0; i < len(e.cone); i++ {
		for _, pos := range e.fanouts(e.cone[i]) {
			if s := e.order[pos]; e.inCone[s] != e.coneEp {
				e.inCone[s] = e.coneEp
				e.cone = append(e.cone, s)
			}
		}
	}
	// Sort the successors by evaluation-order position (the root precedes
	// all of them).
	rest := e.cone[1:]
	for i, id := range rest {
		rest[i] = int(e.topoPos[id])
	}
	slices.Sort(rest)
	for i, pos := range rest {
		rest[i] = e.order[pos]
	}
	e.coneGates = 0
	if e.topoPos[root] < 0 {
		e.coneGates = 1 // a source root is never on the D-frontier
	}
	for _, id := range e.cone {
		if e.isObs[id] {
			e.coneObs = append(e.coneObs, id)
		}
	}
}

// set assigns value v (lo, hi or xx) to controllable line ci, records
// the line's old values on the trail and queues its fanouts; imply
// propagates the change.
func (e *engine) set(ci int, v byte) {
	e.assign[ci] = v
	c := e.ctl[ci]
	e.trail = append(e.trail, change{int32(c), e.gv[c], e.fv[c]})
	e.gv[c] = v
	if c != e.stem {
		e.fv[c] = v
	}
	e.queueFanouts(c)
}

// undo restores, newest first, every value change recorded since the
// trail was mark entries long.
func (e *engine) undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		c := e.trail[i]
		e.gv[c.line], e.fv[c.line] = c.gv, c.fv
	}
	e.trail = e.trail[:mark]
}

// queue marks the gate at position pos in order for evaluation.
func (e *engine) queue(pos int32) {
	w := int(pos >> 6)
	e.pending[w] |= 1 << (pos & 63)
	e.pendLo, e.pendHi = min(e.pendLo, w), max(e.pendHi, w)
}

func (e *engine) queueFanouts(line int) {
	for _, pos := range e.fanouts(line) {
		e.queue(pos)
	}
}

// imply brings good and faulty values up to date with the assignment by
// re-evaluating queued gates in ascending position. A gate queues only
// fanouts, which sit at later positions, so every gate is evaluated
// after all of its changed fanins, as in a full pass.
func (e *engine) imply() {
	for w := e.pendLo; w <= e.pendHi; w++ {
		for e.pending[w] != 0 {
			b := bits.TrailingZeros64(e.pending[w])
			e.pending[w] &^= 1 << b
			e.evalGate(w<<6 | b)
		}
	}
	e.pendLo, e.pendHi = len(e.pending), -1
}

// evalGate recomputes the gate at position pos in order. If it changed,
// its old values go on the trail and its fanouts are queued.
func (e *engine) evalGate(pos int) {
	id := e.order[pos]
	in := &e.fin[pos]
	tt := &truth[e.typ[pos]]
	gv := tt[9*int(e.gv[in[0]])+3*int(e.gv[in[1]])+int(e.gv[in[2]])]
	fv := gv
	if e.inCone[id] == e.coneEp {
		f := [3]byte{e.fv[in[0]], e.fv[in[1]], e.fv[in[2]]}
		if id == e.victim {
			f[e.f.Branch] = e.f.Stuck
		}
		fv = tt[9*int(f[0])+3*int(f[1])+int(f[2])]
		if id == e.stem {
			fv = e.f.Stuck
		}
	}
	if gv != e.gv[id] || fv != e.fv[id] {
		e.trail = append(e.trail, change{int32(id), e.gv[id], e.fv[id]})
		e.gv[id], e.fv[id] = gv, fv
		e.queueFanouts(id)
	}
}

// faninFv returns the faulty value of a fanin as seen by gate id (with
// branch-fault corruption).
func (e *engine) faninFv(id, branch int) byte {
	if id == e.victim && branch == e.f.Branch {
		return e.f.Stuck
	}
	return e.fv[e.n.Gates[id].Fanin[branch]]
}

// detected reports whether a D or D' has reached an observable line.
// Outside the cone the faulty circuit equals the good one, so only the
// cone's observables can show a difference.
func (e *engine) detected() bool {
	for _, line := range e.coneObs {
		if e.gv[line] != xx && e.fv[line] != xx && e.gv[line] != e.fv[line] {
			return true
		}
	}
	// Branch fault victimizing a DFF: the corrupted capture is directly
	// observable through the scan chain.
	return e.victimDFF && e.activated()
}

// activated reports whether the fault site carries a definite discrepancy.
func (e *engine) activated() bool {
	g := e.gv[e.site]
	return g != xx && g != e.f.Stuck
}

// activationImpossible reports whether the good value at the site is fixed
// at the stuck value.
func (e *engine) activationImpossible() bool {
	return e.gv[e.site] == e.f.Stuck
}

// dFrontier lists gates with an undetermined output and a D on some
// fanin, in evaluation order. A gate with a D on a fanin is in the cone.
func (e *engine) dFrontier() []int {
	out := e.frontier[:0]
	for _, id := range e.cone[e.coneGates:] {
		if e.gv[id] != xx && e.fv[id] != xx {
			continue
		}
		for b, in := range e.n.Gates[id].Fanin {
			fg := e.gv[in]
			ff := e.faninFv(id, b)
			if fg != xx && ff != xx && fg != ff {
				out = append(out, id)
				break
			}
		}
	}
	e.frontier = out
	return out
}

// xPathExists checks whether an X-path leads from any frontier gate to an
// observable line. The walk stays inside the cone: it leaves a gate only
// through its combinational fanouts, and a line feeding a DFF is itself
// observable.
func (e *engine) xPathExists(frontier []int) bool {
	e.seenEp++
	if e.seenEp == 0 { // the stamps wrapped: forget every old one
		clear(e.seen)
		e.seenEp = 1
	}
	stack := append(e.dfs[:0], frontier...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.seen[id] == e.seenEp {
			continue
		}
		e.seen[id] = e.seenEp
		if e.isObs[id] {
			e.dfs = stack
			return true
		}
		for _, pos := range e.fanouts(id) {
			if s := e.order[pos]; e.gv[s] == xx || e.fv[s] == xx {
				stack = append(stack, s)
			}
		}
	}
	e.dfs = stack
	return false
}

// objective returns the next (line, value) goal, or ok=false when no useful
// objective exists (dead end). frontier is the current D-frontier; it is
// only consulted once the fault is activated.
func (e *engine) objective(frontier []int) (line int, val byte, ok bool) {
	if !e.activated() {
		if e.gv[e.site] == xx {
			return e.site, inv3(e.f.Stuck), true // want complement of stuck
		}
		return 0, 0, false
	}
	if len(frontier) == 0 {
		return 0, 0, false
	}
	// Choose the frontier gate closest to an observable.
	best := frontier[0]
	for _, id := range frontier[1:] {
		if e.obsDist[id] < e.obsDist[best] {
			best = id
		}
	}
	g := &e.n.Gates[best]
	// Set an X fanin to the non-controlling value.
	pick := func(want byte) (int, byte, bool) {
		for b, f := range g.Fanin {
			if e.gv[f] == xx && !(b == e.f.Branch && best == e.victim) {
				return f, want, true
			}
		}
		return 0, 0, false
	}
	switch g.Type {
	case gate.And, gate.Nand:
		return pick(hi)
	case gate.Or, gate.Nor:
		return pick(lo)
	case gate.Xor, gate.Xnor, gate.Buf, gate.Inv:
		return pick(lo)
	case gate.Mux:
		// Steer the select toward the D-carrying data input, or propagate
		// a D on the select by differentiating the data inputs.
		dIn := -1
		for b := 0; b < 2; b++ {
			fg, ff := e.gv[g.Fanin[b]], e.faninFv(best, b)
			if fg != xx && ff != xx && fg != ff {
				dIn = b
			}
		}
		if dIn >= 0 && e.gv[g.Fanin[2]] == xx {
			return g.Fanin[2], byte(dIn), true
		}
		// D on select: need in0 != in1.
		if e.gv[g.Fanin[0]] == xx {
			return g.Fanin[0], lo, true
		}
		if e.gv[g.Fanin[1]] == xx {
			return g.Fanin[1], inv3(e.gv[g.Fanin[0]]), true
		}
		return 0, 0, false
	}
	return 0, 0, false
}

// backtrace walks an objective back to an unassigned controllable line.
func (e *engine) backtrace(line int, val byte) (ctlLine int, ctlVal byte, ok bool) {
	for steps := 0; steps < 4*len(e.n.Gates)+8; steps++ {
		if e.ctlIdx[line] >= 0 {
			if e.gv[line] != xx {
				return 0, 0, false // already assigned: conflict
			}
			return line, val, true
		}
		g := &e.n.Gates[line]
		pickX := func(prefer byte) int {
			bestIn, bestCost := -1, 1<<30
			for _, f := range g.Fanin {
				if e.gv[f] != xx {
					continue
				}
				cost := e.cc0[f]
				if prefer == hi {
					cost = e.cc1[f]
				}
				if cost < bestCost {
					bestIn, bestCost = f, cost
				}
			}
			return bestIn
		}
		switch g.Type {
		case gate.Buf:
			line = g.Fanin[0]
		case gate.Inv:
			line, val = g.Fanin[0], inv3(val)
		case gate.And, gate.Nand:
			want := val
			if g.Type == gate.Nand {
				want = inv3(val)
			}
			// want==1: all inputs 1 (pick any X); want==0: one input 0.
			in := pickX(want)
			if in < 0 {
				return 0, 0, false
			}
			line, val = in, want
		case gate.Or, gate.Nor:
			want := val
			if g.Type == gate.Nor {
				want = inv3(val)
			}
			in := pickX(want)
			if in < 0 {
				return 0, 0, false
			}
			line, val = in, want
		case gate.Xor, gate.Xnor:
			a, b := g.Fanin[0], g.Fanin[1]
			target := val
			if g.Type == gate.Xnor {
				target = inv3(val)
			}
			switch {
			case e.gv[a] == xx && e.gv[b] == xx:
				line, val = a, lo
			case e.gv[a] == xx:
				line, val = a, target^e.gv[b]
			case e.gv[b] == xx:
				line, val = b, target^e.gv[a]
			default:
				return 0, 0, false
			}
		case gate.Mux:
			in0, in1, sel := g.Fanin[0], g.Fanin[1], g.Fanin[2]
			switch e.gv[sel] {
			case lo:
				line = in0
			case hi:
				line = in1
			default:
				// Choose the cheaper steering.
				c0 := e.cc0[sel]
				c1 := e.cc1[sel]
				if c0 <= c1 {
					line, val = sel, lo
				} else {
					line, val = sel, hi
				}
			}
		case gate.Const0, gate.Const1, gate.Input, gate.DFF:
			return 0, 0, false
		default:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// decision is one assignment on the search stack. mark is the trail
// length before the assignment: undoing to it restores the implied state
// the decision was made in.
type decision struct {
	ctl     int // index into e.ctl
	mark    int
	flipped bool
}

// podem runs the PODEM search for fault f.
func (e *engine) podem(f gate.Fault, backtrackLimit int) outcome {
	e.reset(f)
	e.stack = e.stack[:0]
	backtracks, implications := 0, 0
	defer func() {
		e.cBacktracks.Add(int64(backtracks))
		e.cImplications.Add(int64(implications))
	}()
	for {
		e.imply()
		implications++
		if e.detected() {
			return outDetected
		}
		// A DFF victim is detected as soon as it is activated, so past
		// this point an activated fault has a D-frontier to work on.
		var frontier []int
		fail := false
		if e.activationImpossible() {
			fail = true
		} else if e.activated() && !e.victimDFF {
			frontier = e.dFrontier()
			if len(frontier) == 0 || !e.xPathExists(frontier) {
				fail = true
			}
		}
		var objLine int
		var objVal byte
		if !fail {
			var ok bool
			objLine, objVal, ok = e.objective(frontier)
			if !ok {
				fail = true
			}
		}
		var ctlLine int
		var ctlVal byte
		if !fail {
			var ok bool
			ctlLine, ctlVal, ok = e.backtrace(objLine, objVal)
			if !ok {
				fail = true
			}
		}
		if fail {
			// Backtrack: drop the flipped decisions on top, then flip the
			// most recent unflipped one. The queue is empty here, and
			// undoing the trail to a decision's mark restores the values
			// implied before it was made, so only the flip is implied anew.
			for len(e.stack) > 0 && e.stack[len(e.stack)-1].flipped {
				top := e.stack[len(e.stack)-1]
				e.undo(top.mark)
				e.assign[top.ctl] = xx
				e.stack = e.stack[:len(e.stack)-1]
			}
			if len(e.stack) == 0 {
				return outUntestable
			}
			top := &e.stack[len(e.stack)-1]
			v := e.assign[top.ctl]
			e.undo(top.mark)
			top.flipped = true
			e.set(top.ctl, v^1)
			backtracks++
			if backtracks > backtrackLimit {
				return outAborted
			}
			continue
		}
		ci := int(e.ctlIdx[ctlLine])
		e.stack = append(e.stack, decision{ctl: ci, mark: len(e.trail)})
		e.set(ci, ctlVal)
	}
}

// extractPattern converts the current assignment into a concrete pattern,
// randomly filling don't-cares. The assignment lists PIs first, then DFF
// outputs, in the pattern's own order.
func (e *engine) extractPattern(rng *splitMix) gate.Pattern {
	nPI := len(e.n.PIs())
	p := gate.Pattern{PI: make([]byte, nPI)}
	if nFF := len(e.ctl) - nPI; nFF > 0 {
		p.State = make([]byte, nFF)
	}
	for i, v := range e.assign {
		if v == xx {
			v = byte(rng.next() & 1)
		}
		if i < nPI {
			p.PI[i] = v
		} else {
			p.State[i-nPI] = v
		}
	}
	return p
}

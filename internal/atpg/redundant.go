package atpg

import (
	"math"

	"repro/internal/gate"
)

// sensitizing holds, for each gate type, the value a fanin off a fault
// effect's path must take for the gate to pass the effect on: the
// non-controlling value of AND, NAND, OR and NOR. xx marks the types
// that no single side value opens or closes: XOR and XNOR pass an effect
// at either side value, and BUF and INV have no side input. A mux is
// handled apart (see sensitize).
var sensitizing = [gate.DFF + 1]byte{
	gate.Input: xx, gate.Const0: xx, gate.Const1: xx, gate.Buf: xx, gate.Inv: xx,
	gate.And: hi, gate.Nand: hi, gate.Or: lo, gate.Nor: lo,
	gate.Xor: xx, gate.Xnor: xx, gate.Mux: xx, gate.DFF: xx,
}

// Immediate post-dominators that are not gates: the exit behind every
// observable, which sorts after every position in the evaluation order,
// and the mark of a cone member with no path to an observable.
const (
	pdExit int32 = math.MaxInt32
	pdNone int32 = -1
)

// redundant reports whether the fault just reset is untestable, proven
// before PODEM's first decision (FAN's unique sensitization, Fujiwara and
// Shimono 1983, with SOCRATES-style implication, Schulz et al. 1988). It
// requires what every test of the fault must do, implies that forward
// and backward in the good circuit, and reports a conflict:
//
//   - Activation: the site carries the complement of the stuck value.
//   - Unique sensitization: a test shows a difference at an observable,
//     so every line on the way differs, and each static post-dominator
//     of the injected line lies on every way. A dominator's fanins
//     outside the cone agree in both circuits, so none of them may block
//     it (sensitize). A branch fault's victim differs too, and its
//     fanins other than the site lie off the effect's path. Every slot
//     that reads the site carries the fault: fault simulation corrupts
//     the site at every slot of the victim. A cone with no path to an
//     observable shows nothing.
//
// Every required value holds in every test, and so does every value
// implied from them, so a conflict proves that no test exists. The check
// reads and writes the good values of relevant lines only, and it leaves
// the engine as reset left it: its changes go on the trail, which it
// undoes before it returns.
func (e *engine) redundant() bool {
	root := e.stem
	if root < 0 {
		root = e.victim
	}
	if root < 0 && !e.victimDFF {
		return false // a stem fault on a constant injects nothing
	}
	mark := len(e.trail)
	ok := e.require(e.site, e.f.Stuck^1)
	if ok && e.victim >= 0 {
		pos := e.topoPos[e.victim]
		var mask uint8
		for s, line := range e.fin[pos] {
			if int(line) == e.site {
				mask |= 1 << s
			}
		}
		ok = e.sensitize(pos, mask)
	}
	// A DFF victim's corrupted capture is observed directly.
	if ok && root >= 0 {
		ok = e.dominators(root)
	}
	ok = ok && e.implyRequired()
	e.work = e.work[:0]
	e.undo(mark)
	return !ok
}

// dominators requires the side values of every static post-dominator of
// root, the cone's injected line, and reports false on a conflict or
// when no path leads from root to an observable. The cone lists its
// gates by position after the root, so the reverse walk meets each
// member after all its fanouts, which are members too.
func (e *engine) dominators(root int) bool {
	for i := len(e.cone) - 1; i > 0; i-- {
		e.ipdom[e.topoPos[e.cone[i]]] = e.postDominator(e.cone[i])
	}
	for d := e.postDominator(root); d != pdExit; d = e.ipdom[d] {
		if d == pdNone {
			return false
		}
		var mask uint8
		for s, line := range e.fin[d] {
			if e.inCone[line] == e.coneEp {
				mask |= 1 << s
			}
		}
		if !e.sensitize(d, mask) {
			return false
		}
	}
	return true
}

// postDominator returns the position of cone member id's immediate
// post-dominator, the nearest gate that every path from id to an
// observable passes through: pdExit for an observable member, whose own
// value is seen, and pdNone when no path reaches an observable. Its
// fanouts' immediate post-dominators must be known.
func (e *engine) postDominator(id int) int32 {
	d := pdNone
	if e.isObs[id] {
		d = pdExit
	}
	for _, pos := range e.fanouts(id) {
		switch {
		case e.ipdom[pos] == pdNone:
		case d == pdNone:
			d = pos
		default:
			d = e.meet(d, pos)
		}
	}
	return d
}

// meet returns the nearest common post-dominator of the cone gates at
// positions a and b, both with a path to an observable. An immediate
// post-dominator sits later in the evaluation order than its member, and
// pdExit after every gate, so stepping the earlier of the two climbs both
// chains toward their first common line.
func (e *engine) meet(a, b int32) int32 {
	for a != b {
		if a < b {
			a = e.ipdom[a]
		} else {
			b = e.ipdom[b]
		}
	}
	return a
}

// sensitize requires the values that let a fault effect through the gate
// at position pos when only the fanin slots in mask may carry it: no
// other fanin may block it. A mux passes a lone faulty data input only
// when its select picks that input.
func (e *engine) sensitize(pos int32, mask uint8) bool {
	in := &e.fin[pos]
	t := gate.Type(e.typ[pos])
	if t == gate.Mux {
		switch mask {
		case 1:
			return e.require(int(in[2]), lo)
		case 2:
			return e.require(int(in[2]), hi)
		}
		return true
	}
	if v := sensitizing[t]; v != xx {
		for s := range t.FaninCount() {
			if mask&(1<<s) == 0 && !e.require(int(in[s]), v) {
				return false
			}
		}
	}
	return true
}

// require gives line the good value v, which every test of the fault
// gives it, and reports false when the line holds the other value. A
// new value goes on the trail and on the work list of implyRequired.
func (e *engine) require(line int, v byte) bool {
	switch e.gv[line] {
	case v:
		return true
	case xx:
		e.trail = append(e.trail, change{int32(line), xx, e.fv[line]})
		e.gv[line] = v
		e.work = append(e.work, int32(line))
		return true
	}
	return false
}

// implyRequired implies the required values to a fixed point and
// reports false on a conflict. Each line that changed settles itself, if
// it is a gate, and its relevant fanouts, so at the end every relevant
// gate is settled against the values it now reads. Every line on the
// work list is relevant or a source: the site, a fanin of a cone member,
// or a relevant gate or one of its fanins.
func (e *engine) implyRequired() bool {
	for len(e.work) > 0 {
		line := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		if pos := e.topoPos[line]; pos >= 0 && !e.settle(pos) {
			return false
		}
		for _, pos := range e.fanouts(int(line)) {
			if e.relevant[pos] == e.relEp && !e.settle(pos) {
				return false
			}
		}
	}
	return true
}

// settle applies the function of the gate at position pos in both
// directions. Its output follows from its fanins. When the output is
// known, a fanin at X that would force the other output at one value
// must take the other value; the trial sets every slot the fanin's line
// feeds, and the truth table reads X for each slot still unknown.
func (e *engine) settle(pos int32) bool {
	id := e.order[pos]
	in := &e.fin[pos]
	t := e.typ[pos]
	tt := &truth[t]
	v := [3]byte{e.gv[in[0]], e.gv[in[1]], e.gv[in[2]]}
	if out := tt[9*int(v[0])+3*int(v[1])+int(v[2])]; out != xx && !e.require(id, out) {
		return false
	}
	out := e.gv[id]
	if out == xx {
		return true
	}
	for s := range gate.Type(t).FaninCount() {
		if v[s] != xx {
			continue
		}
		for b := lo; b <= hi; b++ {
			w := v
			for k := range w {
				if in[k] == in[s] {
					w[k] = b
				}
			}
			if r := tt[9*int(w[0])+3*int(w[1])+int(w[2])]; r != xx && r != out && !e.require(int(in[s]), b^1) {
				return false
			}
		}
	}
	return true
}

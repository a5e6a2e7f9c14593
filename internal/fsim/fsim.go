// Package fsim performs single-stuck-at fault simulation on gate-level
// netlists: combinational (full-scan, parallel-pattern serial-fault with
// fault dropping, by fanout-free regions: a fault climbs its region to
// the region's stem, and one event-driven propagation per stem and
// pattern word tells where a flip of the stem is observed) and
// sequential (parallel-fault, time-frame) modes. It supplies the fault
// coverage and test efficiency numbers of the paper's Table 3.
package fsim

import (
	"fmt"
	"math/bits"

	"repro/internal/gate"
)

// multiSim evaluates a netlist with any number of faults injected, each in
// its own set of pattern lanes (used by the sequential mode).
type multiSim struct {
	n      *gate.Netlist
	order  []int
	val    []uint64
	force0 []uint64 // stem stuck-at-0 masks per line
	force1 []uint64 // stem stuck-at-1 masks per line
	// victimAt[g] lists branch forces seen only by gate g.
	victimAt   [][]branchForce
	victimList []int
	hasVictims bool
}

type branchForce struct {
	branch int
	mask   uint64
	stuck  byte
}

func newMultiSim(n *gate.Netlist) (*multiSim, error) {
	order, err := n.Order()
	if err != nil {
		return nil, err
	}
	s := &multiSim{
		n:        n,
		order:    order,
		val:      make([]uint64, len(n.Gates)),
		force0:   make([]uint64, len(n.Gates)),
		force1:   make([]uint64, len(n.Gates)),
		victimAt: make([][]branchForce, len(n.Gates)),
	}
	for i, g := range n.Gates {
		switch g.Type {
		case gate.Const0:
			s.val[i] = 0
		case gate.Const1:
			s.val[i] = ^uint64(0)
		}
	}
	return s, nil
}

// inject adds fault f active in the lanes of mask.
func (s *multiSim) inject(f gate.Fault, mask uint64) {
	if f.Branch < 0 {
		if f.Stuck == 0 {
			s.force0[f.Line] |= mask
		} else {
			s.force1[f.Line] |= mask
		}
		return
	}
	if len(s.victimAt[f.Line]) == 0 {
		s.victimList = append(s.victimList, f.Line)
	}
	s.victimAt[f.Line] = append(s.victimAt[f.Line], branchForce{f.Branch, mask, f.Stuck})
	s.hasVictims = true
}

func (s *multiSim) forceWord(id int, v uint64) uint64 {
	return (v &^ s.force0[id]) | s.force1[id]
}

func (s *multiSim) evalGate(id int) uint64 {
	g := &s.n.Gates[id]
	var a, b, c uint64
	switch len(g.Fanin) {
	case 3:
		c = s.faninView(id, 2, g.Fanin[2])
		fallthrough
	case 2:
		b = s.faninView(id, 1, g.Fanin[1])
		fallthrough
	case 1:
		a = s.faninView(id, 0, g.Fanin[0])
	}
	switch g.Type {
	case gate.Buf:
		return a
	case gate.Inv:
		return ^a
	case gate.And:
		return a & b
	case gate.Or:
		return a | b
	case gate.Nand:
		return ^(a & b)
	case gate.Nor:
		return ^(a | b)
	case gate.Xor:
		return a ^ b
	case gate.Xnor:
		return ^(a ^ b)
	case gate.Mux:
		return (a &^ c) | (b & c)
	case gate.Const0:
		return 0
	case gate.Const1:
		return ^uint64(0)
	default:
		return s.val[id]
	}
}

// faninView returns the value of a fanin line as seen by gate id,
// including branch-fault corruption.
func (s *multiSim) faninView(id, branch, line int) uint64 {
	v := s.val[line]
	if !s.hasVictims {
		return v
	}
	for _, bf := range s.victimAt[id] {
		if bf.branch != branch {
			continue
		}
		if bf.stuck == 0 {
			v &^= bf.mask
		} else {
			v |= bf.mask
		}
	}
	return v
}

// eval runs one combinational pass with all injections active.
func (s *multiSim) eval() {
	for _, id := range s.order {
		s.val[id] = s.forceWord(id, s.evalGate(id))
	}
}

// forceState applies stem forces to PI and DFF lines.
func (s *multiSim) forceState() {
	for _, pi := range s.n.PIs() {
		s.val[pi] = s.forceWord(pi, s.val[pi])
	}
	for _, d := range s.n.DFFs() {
		s.val[d] = s.forceWord(d, s.val[d])
	}
}

// captureWord computes the next-state word a DFF would latch.
func (s *multiSim) captureWord(d int) uint64 {
	return s.faninView(d, 0, s.n.Gates[d].Fanin[0])
}

// Result summarizes a fault simulation run.
type Result struct {
	Total    int
	Detected int
	// DetectedBy[i] is the index of the first pattern (combinational) or
	// cycle (sequential) that detects fault i, or -1.
	DetectedBy []int
}

// Coverage returns detected/total as a percentage.
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Detected) / float64(r.Total)
}

// Simulator fault-simulates full-scan patterns on one netlist. It is
// built once per netlist and reused across calls: the good-machine
// simulator, the levelized event queue and the faulty-value buffers
// persist, and every call leaves them ready for the next. Load and
// Append build a word kept between calls, and First checks faults one
// at a time against it.
// A Simulator is not safe for concurrent use.
//
// Faults are simulated serially against a word of 64 pattern lanes. A
// stem is a line that is observable (a PO or a DFF data input) or that
// does not feed exactly one gate pin; every other line belongs to the
// region of the stem its single fanout path reaches. A fault climbs its
// region one gate at a time, keeping the lanes in which the gate's
// output flips when its input does. The lanes in which a flip of the
// stem reaches an observable line come from one event-driven
// propagation per stem and word, which stops tracking a lane once it is
// observed and is cached until the next word. The result is exact:
// lanes are independent, and a fault can leave its region only through
// the stem, as a flip of its value.
type Simulator struct {
	n     *gate.Netlist
	good  *gate.Sim
	level []int32
	// Combinational fanouts: a DFF's corrupted data input is already an
	// observation point, so propagation stops there.
	fo    [][]int
	isObs []bool  // POs and DFF data inputs (scan capture)
	next  []int32 // the one gate a line of a region feeds; -1 for a stem
	// fv[i] is line i's faulty value while epoch[i] == cur; any other
	// line reads its good value.
	fv     []uint64
	epoch  []uint32
	queued []uint32 // gate i is in buckets[level[i]] while queued[i] == cur
	cur    uint32
	// buckets[l] holds the gates of level l waiting for evaluation, none
	// above level hi; all are empty between propagations.
	buckets [][]int32
	hi      int
	// seen[i] holds the lanes in which a flip of stem i is observed while
	// seenAt[i] == word, the stamp of the loaded word.
	seen    []uint64
	seenAt  []uint32
	word    uint32
	lanes   uint64 // the lanes of the word loaded with a pattern
	pending []int  // fault indices still undetected (reused by Detect)
}

// NewSimulator builds a simulator for n.
func NewSimulator(n *gate.Netlist) (*Simulator, error) {
	good, err := gate.NewSim(n)
	if err != nil {
		return nil, err
	}
	lv, err := n.Levels()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		n:      n,
		good:   good,
		level:  make([]int32, len(n.Gates)),
		fo:     n.CombFanouts(),
		isObs:  make([]bool, len(n.Gates)),
		next:   make([]int32, len(n.Gates)),
		fv:     make([]uint64, len(n.Gates)),
		epoch:  make([]uint32, len(n.Gates)),
		queued: make([]uint32, len(n.Gates)),
		seen:   make([]uint64, len(n.Gates)),
		seenAt: make([]uint32, len(n.Gates)),
	}
	top := 0
	for i, l := range lv {
		s.level[i] = int32(l)
		top = max(top, l)
	}
	s.buckets = make([][]int32, top+1)
	for _, po := range n.POs {
		s.isObs[po] = true
	}
	for _, d := range n.DFFs() {
		s.isObs[n.Gates[d].Fanin[0]] = true
	}
	// A line feeding two pins of one gate has two entries, so it is a
	// stem: a flip of a region line enters exactly one gate pin.
	for i, fo := range s.fo {
		s.next[i] = -1
		if len(fo) == 1 && !s.isObs[i] {
			s.next[i] = int32(fo[0])
		}
	}
	return s, nil
}

// Detect fault-simulates pats against every fault i with by[i] < 0, with
// fault dropping, and sets by[i] to the index of the first pattern that
// detects faults[i]. Entries already >= 0 are skipped. It returns the
// number of faults newly detected. by must have one entry per fault.
//
// Pattern PI values drive the Input lines and State values the DFF
// outputs (scan-in); detection is observed on POs and on DFF data inputs
// (scan capture).
func (s *Simulator) Detect(pats []gate.Pattern, faults []gate.Fault, by []int) (int, error) {
	if len(by) != len(faults) {
		panic(fmt.Sprintf("fsim: Detect got %d result slots for %d faults", len(by), len(faults)))
	}
	pending := s.pending[:0]
	for i, b := range by {
		if b < 0 {
			pending = append(pending, i)
		}
	}
	s.pending = pending // dropping filters in place; keep the buffer
	found := 0
	for base := 0; base < len(pats) && len(pending) > 0; base += 64 {
		if err := s.Load(pats[base:min(base+64, len(pats))]); err != nil {
			return found, err
		}
		still := pending[:0]
		for _, fi := range pending {
			if diff := s.simulate(faults[fi]); diff != 0 {
				by[fi] = base + bits.TrailingZeros64(diff)
				found++
			} else {
				still = append(still, fi)
			}
		}
		pending = still
	}
	return found, nil
}

// Load applies up to 64 patterns to the good machine and evaluates them
// as a new word, the loaded word First reads. Detect loads words of its
// own, so a Detect call replaces the loaded word.
func (s *Simulator) Load(pats []gate.Pattern) error {
	k, err := s.good.ApplyPatterns(pats)
	if err != nil {
		return err
	}
	s.good.Eval()
	s.newWord(^uint64(0) >> uint(64-k))
	return nil
}

// Append adds p to the loaded word as its next lane and evaluates the
// word, as a Load of the word's patterns followed by p would, without
// applying the older patterns again. The loaded word must hold fewer
// than 64 patterns.
func (s *Simulator) Append(p gate.Pattern) error {
	lane := bits.OnesCount64(s.lanes)
	if lane == 64 {
		panic("fsim: Append to a full word")
	}
	pis, dffs := s.n.PIs(), s.n.DFFs()
	if len(p.PI) != len(pis) {
		return fmt.Errorf("fsim: pattern has %d PI values, netlist has %d PIs", len(p.PI), len(pis))
	}
	if p.State != nil && len(p.State) != len(dffs) {
		return fmt.Errorf("fsim: pattern has %d state values, netlist has %d DFFs", len(p.State), len(dffs))
	}
	bit := uint64(1) << lane
	set := func(line int, v byte) {
		if v != 0 {
			s.good.Val[line] |= bit
		} else {
			s.good.Val[line] &^= bit
		}
	}
	for i, line := range pis {
		set(line, p.PI[i])
	}
	for i, line := range dffs {
		var v byte
		if p.State != nil {
			v = p.State[i]
		}
		set(line, v)
	}
	s.good.Eval()
	s.newWord(s.lanes | bit)
	return nil
}

// newWord starts a new word of the given lanes on the evaluated good
// machine: stem observations cached for an older word no longer apply.
func (s *Simulator) newWord(lanes uint64) {
	if s.word++; s.word == 0 { // the word stamps wrapped: forget every old one
		clear(s.seenAt)
		s.word = 1
	}
	s.lanes = lanes
}

// First returns the lowest lane of the loaded word that detects f, or -1.
func (s *Simulator) First(f gate.Fault) int {
	if d := s.simulate(f); d != 0 {
		return bits.TrailingZeros64(d)
	}
	return -1
}

// stuckWord is the value of a line stuck at v in every lane.
func stuckWord(v byte) uint64 {
	if v == 0 {
		return 0
	}
	return ^uint64(0)
}

// stamp starts a fresh faulty machine: every line reads its good value
// and no gate is queued.
func (s *Simulator) stamp() {
	if s.cur++; s.cur == 0 { // the stamps wrapped: forget every old one
		clear(s.epoch)
		clear(s.queued)
		s.cur = 1
	}
}

// value reads the faulty value of a line for the current fault.
func (s *Simulator) value(line int) uint64 {
	if s.epoch[line] == s.cur {
		return s.fv[line]
	}
	return s.good.Val[line]
}

// eval evaluates combinational gate id on faulty fanin values.
func (s *Simulator) eval(id int) uint64 {
	g := &s.n.Gates[id]
	var a, b, c uint64
	switch len(g.Fanin) {
	case 3:
		c = s.value(g.Fanin[2])
		fallthrough
	case 2:
		b = s.value(g.Fanin[1])
		fallthrough
	case 1:
		a = s.value(g.Fanin[0])
	}
	switch g.Type {
	case gate.Buf:
		return a
	case gate.Inv:
		return ^a
	case gate.And:
		return a & b
	case gate.Or:
		return a | b
	case gate.Nand:
		return ^(a & b)
	case gate.Nor:
		return ^(a | b)
	case gate.Xor:
		return a ^ b
	case gate.Xnor:
		return ^(a ^ b)
	case gate.Mux:
		return (a &^ c) | (b & c)
	default:
		return s.good.Val[id]
	}
}

// diverge records faulty value v on line id and queues its fanouts.
func (s *Simulator) diverge(id int, v uint64) {
	s.fv[id], s.epoch[id] = v, s.cur
	for _, f := range s.fo[id] {
		if s.queued[f] != s.cur {
			s.queued[f] = s.cur
			l := int(s.level[f])
			s.buckets[l] = append(s.buckets[l], int32(f))
			s.hi = max(s.hi, l)
		}
	}
}

// simulate evaluates fault f against the loaded word and returns the
// lanes in which it is detected.
func (s *Simulator) simulate(f gate.Fault) uint64 {
	s.stamp()
	good := s.good.Val
	line := f.Line
	var v uint64
	if f.Branch < 0 {
		v = stuckWord(f.Stuck)
	} else {
		g := &s.n.Gates[line]
		if g.Type == gate.DFF {
			// Corrupted scan capture, observed directly.
			return (good[g.Fanin[0]] ^ stuckWord(f.Stuck)) & s.lanes
		}
		// The victim gate sees a corrupted fanin.
		fan := g.Fanin[f.Branch]
		saved := good[fan]
		good[fan] = stuckWord(f.Stuck)
		v = s.eval(line)
		good[fan] = saved
	}
	// d holds the lanes in which the fault flips line. Climb to the stem,
	// keeping the lanes in which the next gate flips with line.
	d := (v ^ good[line]) & s.lanes
	for d != 0 && s.next[line] >= 0 {
		g := int(s.next[line])
		s.fv[line], s.epoch[line] = ^good[line], s.cur
		d &= s.eval(g) ^ good[g]
		line = g
	}
	if d == 0 || s.isObs[line] {
		return d
	}
	return d & s.observe(line)
}

// observe returns the lanes of the loaded word in which a flip of stem
// reaches an observable line. The flip propagates by events, level by
// level, in every loaded lane not yet observed; the answer is cached
// until the next word.
func (s *Simulator) observe(stem int) uint64 {
	if s.seenAt[stem] == s.word {
		return s.seen[stem]
	}
	s.stamp()
	good := s.good.Val
	mask, seen := s.lanes, uint64(0)
	s.hi = 0
	s.diverge(stem, ^good[stem])
	for l := int(s.level[stem]) + 1; l <= s.hi; l++ {
		for _, id := range s.buckets[l] {
			v := s.eval(int(id))
			d := (v ^ good[id]) & mask
			if d == 0 {
				continue
			}
			if s.isObs[id] {
				seen |= d
				if mask &^= d; mask == 0 {
					break
				}
			}
			s.diverge(int(id), v)
		}
		s.buckets[l] = s.buckets[l][:0]
		if mask == 0 {
			for l++; l <= s.hi; l++ {
				s.buckets[l] = s.buckets[l][:0]
			}
		}
	}
	s.seen[stem], s.seenAt[stem] = seen, s.word
	return seen
}

// Combinational fault-simulates full-scan patterns on a fresh Simulator
// (see Simulator.Detect for the observation model). Patterns run in
// 64-lane batches; faults are simulated serially with dropping.
func Combinational(n *gate.Netlist, pats []gate.Pattern, faults []gate.Fault) (*Result, error) {
	s, err := NewSimulator(n)
	if err != nil {
		return nil, err
	}
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	if res.Detected, err = s.Detect(pats, faults, res.DetectedBy); err != nil {
		return nil, err
	}
	return res, nil
}

// Stimulus is a sequential input stream: Cycles[c][i] is the value (0/1)
// of the i-th PI line during cycle c.
type Stimulus struct {
	Cycles [][]byte
}

// RandomStimulus builds a deterministic pseudo-random stimulus of the
// given length for the netlist's PIs.
func RandomStimulus(n *gate.Netlist, cycles int, seed uint64) *Stimulus {
	pis := n.PIs()
	st := &Stimulus{Cycles: make([][]byte, cycles)}
	x := seed | 1
	for c := range st.Cycles {
		row := make([]byte, len(pis))
		for i := range row {
			// xorshift64
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			row[i] = byte(x >> 63)
		}
		st.Cycles[c] = row
	}
	return st
}

// Sequential fault-simulates the stimulus from the all-zero reset state,
// observing only primary outputs. Faults are packed 63 per batch (lane 0
// carries the good machine). Within a batch, lanes run to completion.
func Sequential(n *gate.Netlist, stim *Stimulus, faults []gate.Fault) (*Result, error) {
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	pis := n.PIs()
	for _, row := range stim.Cycles {
		if len(row) != len(pis) {
			return nil, fmt.Errorf("fsim: stimulus row has %d values, netlist has %d PIs", len(row), len(pis))
		}
	}
	for base := 0; base < len(faults); base += 63 {
		batch := faults[base:]
		if len(batch) > 63 {
			batch = batch[:63]
		}
		s, err := newMultiSim(n)
		if err != nil {
			return nil, err
		}
		for lane, f := range batch {
			s.inject(f, 1<<uint(lane+1))
		}
		detected := make([]bool, len(batch))
		for c, row := range stim.Cycles {
			for i, pi := range pis {
				if row[i] != 0 {
					s.val[pi] = ^uint64(0)
				} else {
					s.val[pi] = 0
				}
			}
			s.forceState()
			s.eval()
			for _, po := range n.POs {
				w := s.val[po]
				var goodW uint64
				if w&1 != 0 {
					goodW = ^uint64(0)
				}
				diff := w ^ goodW
				if diff == 0 {
					continue
				}
				for lane := range batch {
					if !detected[lane] && diff&(1<<uint(lane+1)) != 0 {
						detected[lane] = true
						res.Detected++
						res.DetectedBy[base+lane] = c
					}
				}
			}
			// Clock the state forward.
			dffs := n.DFFs()
			next := make([]uint64, len(dffs))
			for i, d := range dffs {
				next[i] = s.captureWord(d)
			}
			for i, d := range dffs {
				s.val[d] = s.forceWord(d, next[i])
			}
		}
	}
	return res, nil
}

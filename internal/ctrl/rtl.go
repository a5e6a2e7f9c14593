package ctrl

import (
	"fmt"
	"sort"

	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/soc"
)

// BuildRTL emits the test controller GenerateSelection sizes for res and
// sel, a resolved selection read as GenerateSelection reads it, as a
// synthesizable RTL core: a state counter stepping through one
// state per tested core (plus idle/done), a state decoder, and one
// registered control line per clock gate and mode select. The core can be
// run through internal/synth to cross-check the Area estimate, and
// through internal/rtlsim to watch the control sequence.
//
// Interface:
//
//	TestMode (in, 1)  — 1 starts/continues the test session
//	StepDone (in, 1)  — pulsed by the tester when the current core's
//	                    schedule completes (state advances)
//	State    (out, n) — current FSM state (observable for debug)
//	Ctl      (out, m) — one bit per control line, asserted in the state
//	                    that tests the line's core: first the clock gates
//	                    of the scheduled cores, then the mode selects of
//	                    the cores with a version under sel, each sorted by
//	                    core name
func BuildRTL(ch *soc.Chip, res *sched.Result, sel map[string]int) (*rtl.Core, error) {
	cores := ch.TestableCores()
	var gates, modes []string
	for _, sc := range res.Cores {
		gates = append(gates, sc.Core)
	}
	for _, core := range cores {
		if core.VersionAt(sel[core.Name]) != nil {
			modes = append(modes, core.Name)
		}
	}
	sort.Strings(gates)
	sort.Strings(modes)
	lines := append(gates, modes...) // the core each control line belongs to
	sb := bits(len(cores) + 2)
	m := len(lines)
	if m == 0 {
		return nil, fmt.Errorf("ctrl: controller has no control lines")
	}
	if m > 64 || sb > 16 {
		return nil, fmt.Errorf("ctrl: controller too wide to emit (%d control lines, %d state bits)", m, sb)
	}

	b := rtl.NewCore("testctl").
		CtlIn("TestMode", 1).
		CtlIn("StepDone", 1).
		Out("State", sb).
		Out("Ctl", m).
		Reg("STATE", sb).
		RegLd("CTL", m).
		Mux("MST", sb, 2). // hold vs advance
		Unit(rtl.Unit{Name: "incst", Op: rtl.OpInc, Width: sb}).
		Unit(rtl.Unit{Name: "adv", Op: rtl.OpAnd, Width: 1}).
		// Decoder from state to per-signal enables.
		Unit(rtl.Unit{Name: "dec", Op: rtl.OpDecode, Width: sb})

	b.Wire("STATE.q", "incst.in0").
		Wire("STATE.q", "MST.in0").
		Wire("incst.out", "MST.in1").
		Wire("TestMode", "adv.in0").
		Wire("StepDone", "adv.in1").
		Wire("adv.out", "MST.sel").
		Wire("MST.out", "STATE.d").
		Wire("STATE.q", "State").
		Wire("STATE.q", "dec.in0").
		Wire("TestMode", "CTL.ld").
		Wire("CTL.q", "Ctl")

	// Map each control line to the state of its core: state k+1 tests
	// cores[k] (state 0 is idle, the last state is done).
	stateOf := map[string]int{}
	for i, core := range cores {
		stateOf[core.Name] = i + 1
	}
	for i, core := range lines {
		b.Wire(fmt.Sprintf("dec.out[%d]", stateOf[core]), fmt.Sprintf("CTL.d[%d]", i))
	}
	return b.Build()
}

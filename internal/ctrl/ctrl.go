// Package ctrl generates the chip test controller of Section 5.2: a small
// finite-state machine that sequences the per-core tests, drives each
// core's transparency-mode and freeze controls, and gates core clocks so
// data can wait at intermediate cores ("the proposed methodology requires
// that each core can be clocked independently ... provided by a test
// controller which is added to the chip").
package ctrl

import (
	"repro/internal/cell"
	"repro/internal/sched"
	"repro/internal/soc"
)

// Controller is the generated test controller.
type Controller struct {
	States int
	Area   cell.Area
}

// GenerateSelection sizes the controller from a schedule: one state per
// testable core plus setup/done, and one control line per clock gate and
// per transparency-mode select. Every scheduled core gets a clock gate;
// every testable core with a version under sel gets a mode select. sel is
// a resolved selection (soc.Chip.Resolve), taken as given; a core it
// leaves out reads index 0, which names a version exactly when the
// resolved index does (an empty ladder has neither). The chip is only
// read, so selection-pure evaluations can generate controllers
// concurrently. BuildRTL emits the same control lines as RTL.
func GenerateSelection(ch *soc.Chip, res *sched.Result, sel map[string]int) *Controller {
	cores := ch.TestableCores()
	modes := 0
	for _, core := range cores {
		if core.VersionAt(sel[core.Name]) != nil {
			modes++
		}
	}
	c := &Controller{States: len(cores) + 2}
	// FSM area: state register + next-state logic + one AND per gated
	// clock + one driver per control line.
	stateBits := bits(c.States)
	c.Area.Add(cell.DFF, stateBits)
	c.Area.Add(cell.Nand2, 4*stateBits)
	c.Area.Add(cell.And2, len(cores))
	c.Area.Add(cell.Buf, len(res.Cores)+modes)
	return c
}

func bits(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

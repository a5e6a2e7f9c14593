// Package ctrl generates the chip test controller of Section 5.2: a small
// finite-state machine that sequences the per-core tests, drives each
// core's transparency-mode and freeze controls, and gates core clocks so
// data can wait at intermediate cores ("the proposed methodology requires
// that each core can be clocked independently ... provided by a test
// controller which is added to the chip").
package ctrl

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/sched"
	"repro/internal/soc"
)

// Signal is one control line the FSM drives.
type Signal struct {
	Name   string
	Core   string
	Active string // human-readable activity window
}

// Controller is the generated test controller.
type Controller struct {
	States  int
	Signals []Signal
	Area    cell.Area
}

// GenerateSelection sizes the controller from a schedule: one state per
// tested core plus setup/done, a clock-gate per core, and one
// transparency-mode select per distinct transparency path in use. sel
// gives an explicit version index per core; cores missing from it (or
// every core, when sel is nil) use their currently selected version. The
// chip is only read, so selection-pure evaluations can generate
// controllers concurrently.
func GenerateSelection(ch *soc.Chip, res *sched.Result, sel map[string]int) *Controller {
	c := &Controller{}
	cores := ch.TestableCores()
	c.States = len(cores) + 2
	for _, sc := range res.Cores {
		c.Signals = append(c.Signals, Signal{
			Name:   fmt.Sprintf("gate_clk_%s", sc.Core),
			Core:   sc.Core,
			Active: fmt.Sprintf("period %d cycles while testing %s", sc.Period, sc.Core),
		})
	}
	// Transparency-mode selects: one per core version in use.
	for _, core := range cores {
		v := core.Version()
		if sel != nil {
			if idx, ok := sel[core.Name]; ok {
				v = core.VersionAt(idx)
			}
		}
		if v != nil {
			c.Signals = append(c.Signals, Signal{
				Name:   fmt.Sprintf("tmode_%s", core.Name),
				Core:   core.Name,
				Active: v.Label,
			})
		}
	}
	sort.Slice(c.Signals, func(i, j int) bool { return c.Signals[i].Name < c.Signals[j].Name })
	// FSM area: state register + next-state logic + one AND per gated
	// clock + one driver per mode line.
	stateBits := bits(c.States)
	c.Area.Add(cell.DFF, stateBits)
	c.Area.Add(cell.Nand2, 4*stateBits)
	c.Area.Add(cell.And2, len(cores))
	c.Area.Add(cell.Buf, len(c.Signals))
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

package sched

import (
	"fmt"

	"repro/internal/ccg"
	"repro/internal/soc"
)

// NetTest is the test plan for one inter-core wire. The paper's key
// advantage over the test-bus architecture (Section 1) is that SOCET's
// test data flows over the functional interconnect itself; this schedule
// makes that explicit by routing dedicated wire patterns (all-zero,
// all-one, and a walking one — the standard stuck/bridge set) through
// each net.
type NetTest struct {
	Net      soc.Net
	Width    int
	Patterns int // ceil(log2 w) + 2 walking/constant patterns
	Period   int // cycles to push one pattern from a PI through to a PO
	TAT      int
}

// InterconnectResult is the chip-wide interconnect test plan.
type InterconnectResult struct {
	Nets     []NetTest
	TotalTAT int
	// Untestable lists nets with no PI -> net -> PO path even through
	// transparency (their cores face BIST-tested memories, e.g.); they
	// are covered implicitly by the memory BIST interface test instead.
	Untestable []soc.Net
}

// wirePatterns is the minimal stuck+bridge pattern count for a w-bit bus.
func wirePatterns(w int) int {
	n := 2 // all-zero, all-one
	for v := w - 1; v > 0; v >>= 1 {
		n++
	}
	return n
}

// ScheduleInterconnect plans a test for every core-to-core net: the
// shortest reservation-free path from the chip PIs through the net to a
// PO determines the per-pattern period. Nets touching memory cores are
// skipped (their cores are absent from the CCG).
//
// Without reservations a path's arrival is the sum of its edge latencies,
// so a net's period is the distance from the nearest PI to its driver
// plus the distance from its sink to the nearest PO. One sweep from the
// PIs and one against the edges from the POs give both distances for
// every net at once.
func ScheduleInterconnect(ch *soc.Chip, g *ccg.Graph) (*InterconnectResult, error) {
	res := &InterconnectResult{}
	head := g.DistancesFrom(g.PINodes())
	tail := g.DistancesTo(g.PONodes())
	for _, n := range ch.Nets {
		if n.FromCore == "" || n.ToCore == "" {
			continue // chip-pin nets are tested by the pin itself
		}
		fromC, ok1 := ch.CoreByName(n.FromCore)
		toC, ok2 := ch.CoreByName(n.ToCore)
		if !ok1 || !ok2 || fromC.Memory || toC.Memory {
			continue
		}
		width := 1
		if p, ok := fromC.RTL.PortByName(n.FromPort); ok {
			width = p.Width
		}
		src, ok := g.NodeIndex(n.FromCore + "." + n.FromPort)
		if !ok {
			return nil, fmt.Errorf("sched: interconnect: missing node %s.%s", n.FromCore, n.FromPort)
		}
		sink, ok := g.NodeIndex(n.ToCore + "." + n.ToPort)
		if !ok {
			return nil, fmt.Errorf("sched: interconnect: missing node %s.%s", n.ToCore, n.ToPort)
		}
		if head[src] < 0 || tail[sink] < 0 {
			res.Untestable = append(res.Untestable, n)
			continue
		}
		nt := NetTest{
			Net:      n,
			Width:    width,
			Patterns: wirePatterns(width),
			Period:   head[src] + tail[sink],
		}
		if nt.Period < 1 {
			nt.Period = 1
		}
		nt.TAT = nt.Patterns * nt.Period
		res.Nets = append(res.Nets, nt)
		res.TotalTAT += nt.TAT
	}
	return res, nil
}

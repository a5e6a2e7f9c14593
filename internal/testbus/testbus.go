// Package testbus implements the test-bus baseline sketched in Section 1:
// a dedicated bus runs from the chip PIs to the POs and multiplexers
// isolate each full-scanned core during test. It is also the degenerate
// worst case of SOCET's iterative improvement (Section 5.2: "in the worst
// case, the solution will degenerate into a test bus like system"). The
// bus gives every core direct access (minimum possible TAT) but pays a
// multiplexer per isolated port bit and cannot test the inter-core
// interconnect.
package testbus

import (
	"repro/internal/cell"
	"repro/internal/soc"
)

// CoreResult is the test-bus accounting for one core.
type CoreResult struct {
	Core    string
	Vectors int
	Depth   int // scan depth while isolated (HSCAN chains retained)
	TAT     int
	MuxArea cell.Area
}

// Result is the chip-level test-bus accounting.
type Result struct {
	Cores    []*CoreResult
	BusArea  cell.Area // bus wiring drivers
	TotalTAT int
}

// MuxCells returns the total isolation-mux cell count.
func (r *Result) MuxCells() int {
	n := 0
	for _, c := range r.Cores {
		n += c.MuxArea.Cells()
	}
	return n + r.BusArea.Cells()
}

// Evaluate computes the test-bus configuration: every core input and
// output bit is muxed onto the bus, each core is tested with direct pin
// access (period 1), and cores share the bus sequentially.
func Evaluate(ch *soc.Chip) *Result {
	res := &Result{}
	busWidth := 0
	for _, c := range ch.TestableCores() {
		cr := &CoreResult{Core: c.Name, Vectors: c.Vectors}
		bits := 0
		for _, p := range c.RTL.Ports {
			bits += p.Width
			if p.Width > busWidth {
				busWidth = p.Width
			}
		}
		cr.MuxArea.Add(cell.Mux2, bits)
		if c.Scan != nil {
			cr.Depth = c.Scan.MaxDepth
			cr.TAT = c.Scan.VectorsFor(c.Vectors) + max(cr.Depth-1, 0)
		} else {
			cr.TAT = c.Vectors
		}
		res.Cores = append(res.Cores, cr)
		res.TotalTAT += cr.TAT
	}
	// Bus repeaters/drivers, a buffer per bit.
	res.BusArea.Add(cell.Buf, 2*busWidth)
	return res
}

package flowcmd

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/testbus"
	"repro/internal/wrap"
)

// Test-architecture selectors for the shared -arch CLI flag. SOCET is the
// paper's transparency-based access; wrapper is the P1500-style
// wrapped-core/TAM baseline (internal/wrap); bus is the dedicated test
// bus (internal/testbus); all compares the three side by side.
const (
	ArchSOCET   = "socet"
	ArchWrapper = "wrapper"
	ArchBus     = "bus"
	ArchAll     = "all"
)

// ParseArch validates an -arch flag value ("" defaults to socet).
func ParseArch(s string) (string, error) {
	switch s {
	case "", ArchSOCET:
		return ArchSOCET, nil
	case ArchWrapper, ArchBus, ArchAll:
		return s, nil
	}
	return "", fmt.Errorf("flowcmd: -arch must be %s, %s, %s or %s, got %q",
		ArchSOCET, ArchWrapper, ArchBus, ArchAll, s)
}

// ArchRow is one test architecture's bottom line on one chip: the chip
// test application time and the chip-level DFT area it pays for access
// (all three architectures sit on top of the same HSCAN-ed cores).
type ArchRow struct {
	Arch     string
	TAT      int
	DFTCells int
	Detail   string
	// Wrapper is the wrapper row's evaluation, for its per-core chain
	// balancing; nil on the other rows.
	Wrapper *wrap.Result
}

// ArchRows evaluates the selected architecture(s) on a prepared flow.
// SOCET is evaluated at the flow's current version selection.
func ArchRows(f *core.Flow, arch string, tamWidth int) ([]ArchRow, error) {
	var rows []ArchRow
	if arch == ArchSOCET || arch == ArchAll {
		e, err := f.Evaluate()
		if err != nil {
			return nil, err
		}
		rows = append(rows, ArchRow{
			Arch: ArchSOCET, TAT: e.TAT, DFTCells: e.ChipDFTCells(),
			Detail: "transparency access, current version selection",
		})
	}
	if arch == ArchWrapper || arch == ArchAll {
		r := f.EvaluateWrapper(tamWidth, nil)
		rows = append(rows, ArchRow{
			Arch: ArchWrapper, TAT: r.ChipTAT, DFTCells: r.DFTCells(),
			Detail:  fmt.Sprintf("TAM width %d, %d buses", r.Width, r.NumBuses),
			Wrapper: r,
		})
	}
	if arch == ArchBus || arch == ArchAll {
		r := testbus.Evaluate(f.Chip)
		rows = append(rows, ArchRow{
			Arch: ArchBus, TAT: r.TotalTAT, DFTCells: r.MuxCells(),
			Detail: "direct pin access, cores serial",
		})
	}
	return rows, nil
}

// ParseIntList parses a comma-separated list of positive ints, the
// shared format of the -study-cores / -study-widths / -tam-widths flags.
func ParseIntList(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("flowcmd: bad list entry %q (want positive ints)", s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("flowcmd: empty int list")
	}
	return out, nil
}

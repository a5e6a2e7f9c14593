// Package report assembles every table and figure of the paper's
// evaluation (Section 6) from the flow results: the core version ladders
// (Figures 6 and 8), the Section 3 worked example, the design-space
// trade-off (Figure 10, Table 1), the area-overhead comparison (Table 2)
// and the testability comparison (Table 3). The cmd/ executables print
// these structures; bench_test.go regenerates them under `go test -bench`.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bscan"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/soc"
	"repro/internal/trans"
)

// VersionRow is one row of a Figure 6/8-style version table.
type VersionRow struct {
	Label     string
	Latencies map[string]int // "D->A(7:0)"-style pair -> cycles
	Cells     int
}

// VersionTable lists the version ladder of one core: justification
// latency per output, propagation latency per input, and the transparency
// area overhead, exactly the columns of Figures 6 and 8.
func VersionTable(c *soc.Core) []VersionRow {
	var rows []VersionRow
	for _, v := range c.Versions {
		r := VersionRow{Label: v.Label, Latencies: map[string]int{}}
		for _, p := range c.RTL.Outputs() {
			r.Latencies["->"+p.Name] = v.JustLatency(p.Name)
		}
		for _, p := range c.RTL.Inputs() {
			r.Latencies[p.Name+"->"] = v.PropLatency(p.Name)
		}
		r.Cells = versionCells(v)
		rows = append(rows, r)
	}
	return rows
}

func versionCells(v *trans.Version) int {
	a := v.Area
	return a.Cells()
}

// FormatVersionTable renders the rows as an aligned text table.
func FormatVersionTable(name string, rows []VersionRow) string {
	if len(rows) == 0 {
		return name + ": no versions\n"
	}
	var keys []string
	for k := range rows[0].Latencies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s transparency versions (latency cycles | overhead cells)\n", name)
	fmt.Fprintf(&b, "%-12s", "")
	for _, k := range keys {
		fmt.Fprintf(&b, "%12s", k)
	}
	fmt.Fprintf(&b, "%10s\n", "ovhd")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Label)
		for _, k := range keys {
			fmt.Fprintf(&b, "%12d", r.Latencies[k])
		}
		fmt.Fprintf(&b, "%10d\n", r.Cells)
	}
	return b.String()
}

// Section3 reproduces the worked example of Section 3: the DISPLAY's test
// application time under successive CPU versions, against FSCAN-BSCAN.
type Section3 struct {
	// PaperForm is TAT expressed as vectors x period + tail.
	Rows []Section3Row
	// FscanBscanTAT is the (ff+in)*V + ff+in-1 baseline for the same core.
	FscanBscanTAT int
}

// Section3Row is one configuration of the helper cores.
type Section3Row struct {
	Config  string
	Vectors int
	Period  int
	Tail    int
	TAT     int
}

// WorkedExample computes the Section 3 numbers on System 1: the DISPLAY
// core tested through PREPROCESSOR and CPU transparency, sweeping the CPU
// version (V1..Vn) with the PREPROCESSOR at its fastest (the paper assumes
// NUM->DB in one cycle). The chip's own selection is left as it is.
func WorkedExample(f *core.Flow) (*Section3, error) {
	disp, ok := f.Chip.CoreByName("DISPLAY")
	if !ok {
		return nil, fmt.Errorf("report: no DISPLAY core")
	}
	cpu, ok := f.Chip.CoreByName("CPU")
	if !ok {
		return nil, fmt.Errorf("report: no CPU core")
	}
	prep, _ := f.Chip.CoreByName("PREPROCESSOR")
	out := &Section3{}
	sel := map[string]int{"PREPROCESSOR": len(prep.Versions) - 1, "DISPLAY": 0}
	for vi := range cpu.Versions {
		sel["CPU"] = vi
		e, err := f.EvaluateSelection(sel)
		if err != nil {
			return nil, err
		}
		for _, cs := range e.Sched.Cores {
			if cs.Core != "DISPLAY" {
				continue
			}
			out.Rows = append(out.Rows, Section3Row{
				Config:  fmt.Sprintf("CPU %s", cpu.Versions[vi].Label),
				Vectors: cs.HSCANVectors,
				Period:  cs.Period,
				Tail:    cs.Tail,
				TAT:     cs.TAT,
			})
		}
	}
	out.FscanBscanTAT = bscan.DisplayExample(disp.RTL.FFCount(), internalIn(f.Chip, disp), disp.Vectors)
	return out, nil
}

func internalIn(ch *soc.Chip, c *soc.Core) int {
	bits := 0
	for _, p := range c.RTL.Inputs() {
		fromChip := false
		for _, n := range ch.DriversOf(c.Name, p.Name) {
			if n.FromCore == "" {
				fromChip = true
			}
		}
		if !fromChip {
			bits += p.Width
		}
	}
	return bits
}

// Table1Row is one row of Table 1 (design-space exploration).
type Table1Row struct {
	Desc    string
	AreaOv  int // chip-level DFT cells
	TATime  int
	FCov    float64
	TestEff float64
}

// Table1 reproduces the design-space exploration table: the minimum-area
// point, the minimum-TAT point, and the all-minimum-latency point, with
// fault coverage and test efficiency from the aggregated core test sets.
func Table1(f *core.Flow, points []explore.Point) []Table1Row {
	stats := f.AggregateTestStats()
	fc, te := stats.FaultCoverage(), stats.TestEfficiency()
	minArea := points[0]
	minTAT := explore.MinTATPoint(points)
	var allFast explore.Point
	for _, p := range points {
		fast := true
		for _, c := range f.Chip.TestableCores() {
			if p.Selection[c.Name] != len(c.Versions)-1 {
				fast = false
			}
		}
		if fast {
			allFast = p
		}
	}
	return []Table1Row{
		{Desc: fmt.Sprintf("Each core has min. area (1): %s", minArea.Label()), AreaOv: minArea.ChipCells, TATime: minArea.TAT, FCov: fc, TestEff: te},
		{Desc: fmt.Sprintf("Each core has min. latency (%d): %s", len(points), allFast.Label()), AreaOv: allFast.ChipCells, TATime: allFast.TAT, FCov: fc, TestEff: te},
		{Desc: fmt.Sprintf("Min. chip TApp.: %s", minTAT.Label()), AreaOv: minTAT.ChipCells, TATime: minTAT.TAT, FCov: fc, TestEff: te},
	}
}

// Table2 is the area-overhead comparison for one system. Percentages are
// of the original grid area (grid units weight big cells like boundary
// scan correctly; the paper's cell counts came from a real library).
type Table2 struct {
	System    string
	OrigCells int

	FscanPct float64 // core-level full scan
	HscanPct float64 // core-level HSCAN
	BscanPct float64 // chip-level boundary scan

	SocetMinAreaPct float64 // chip-level SOCET, min-area point
	SocetMinTATPct  float64 // chip-level SOCET, min-TAT point

	FscanBscanTotalPct   float64
	SocetMinAreaTotalPct float64
	SocetMinTATTotalPct  float64
}

// MakeTable2 computes the Table 2 comparison from the flow and the
// enumerated design points.
func MakeTable2(f *core.Flow, points []explore.Point) (*Table2, error) {
	origGrids := f.OrigGrids()
	if origGrids == 0 {
		return nil, fmt.Errorf("report: zero original area")
	}
	bs := bscan.Evaluate(f.Chip)
	scanGrids, bscanGrids := 0, 0
	for _, c := range bs.Cores {
		scanGrids += c.ScanArea.Grids()
		bscanGrids += c.BscanArea.Grids()
	}
	minArea := points[0]
	minTAT := explore.MinTATPoint(points)
	t := &Table2{
		System:    f.Chip.Name,
		OrigCells: f.OrigCells(),
		FscanPct:  core.Percent(scanGrids, origGrids),
		HscanPct:  core.Percent(f.HSCANGrids(), origGrids),
		BscanPct:  core.Percent(bscanGrids, origGrids),
	}
	t.SocetMinAreaPct = core.Percent(minArea.Eval.ChipDFTGrids(), origGrids)
	t.SocetMinTATPct = core.Percent(minTAT.Eval.ChipDFTGrids(), origGrids)
	t.FscanBscanTotalPct = t.FscanPct + t.BscanPct
	t.SocetMinAreaTotalPct = t.HscanPct + t.SocetMinAreaPct
	t.SocetMinTATTotalPct = t.HscanPct + t.SocetMinTATPct
	return t, nil
}

// Table3 is the testability comparison for one system.
type Table3 struct {
	System string

	OrigFC    float64 // sequential test generation on the raw chip
	OrigTEff  float64
	HscanFC   float64 // cores HSCAN-testable but no chip-level DFT
	HscanTEff float64

	FscanBscanFC   float64
	FscanBscanTEff float64
	FscanBscanTAT  int

	SocetFC      float64
	SocetTEff    float64
	SocetMinArea int // TAT at the min-area point
	SocetMinTAT  int // TAT at the min-TAT point
}

// Table3Options sizes the sequential fault simulations.
type Table3Options struct {
	Cycles      int // random functional cycles (default 192)
	FaultSample int // sampled faults for the sequential columns (default 1500)
	Seed        uint64
}

func (o *Table3Options) withDefaults() Table3Options {
	v := Table3Options{Cycles: 192, FaultSample: 1500, Seed: 0x7ab1e3}
	if o != nil {
		if o.Cycles > 0 {
			v.Cycles = o.Cycles
		}
		if o.FaultSample > 0 {
			v.FaultSample = o.FaultSample
		}
		if o.Seed != 0 {
			v.Seed = o.Seed
		}
	}
	return v
}

// SampleFaults picks a deterministic, seed-dependent sample of n faults.
// The fault list is divided into n equal strata and one fault is drawn
// from each, so the sample stays spread over the whole list while the
// xorshift stream decides the position inside every stratum.
func SampleFaults(faults []gate.Fault, n int, seed uint64) []gate.Fault {
	if n >= len(faults) {
		return faults
	}
	out := make([]gate.Fault, 0, n)
	x := seed | 1
	stride := float64(len(faults)) / float64(n)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		lo := int(float64(i) * stride)
		hi := int(float64(i+1) * stride)
		if hi > len(faults) {
			hi = len(faults)
		}
		if hi <= lo {
			hi = lo + 1
		}
		out = append(out, faults[lo+int(x%uint64(hi-lo))])
	}
	return out
}

// MakeTable3 computes the Table 3 comparison. The "Orig." and "HSCAN"
// columns run sampled sequential fault simulation with random functional
// patterns on the flattened chip (the paper ran an in-house sequential
// test generator; random patterns similarly fail to reach the embedded
// logic, which is the point of the column). The FSCAN-BSCAN and SOCET
// columns share the aggregated per-core ATPG coverage — both deliver the
// same precomputed test sets losslessly.
func MakeTable3(f *core.Flow, points []explore.Point, opts *Table3Options) (*Table3, error) {
	o := opts.withDefaults()
	t := &Table3{System: f.Chip.Name}

	// Original chip: no DFT at all.
	plain, err := core.BuildChipNetlist(f, false)
	if err != nil {
		return nil, err
	}
	fc, te, err := seqCoverage(plain.Netlist, o)
	if err != nil {
		return nil, err
	}
	t.OrigFC, t.OrigTEff = fc, te

	// Cores HSCAN-testable, still no chip-level access (scan enable and
	// chains exist but are driven from ordinary pins at random).
	scanNl, err := core.BuildChipNetlist(f, true)
	if err != nil {
		return nil, err
	}
	fc, te, err = seqCoverage(scanNl.Netlist, o)
	if err != nil {
		return nil, err
	}
	t.HscanFC, t.HscanTEff = fc, te

	stats := f.AggregateTestStats()
	t.FscanBscanFC = stats.FaultCoverage()
	t.FscanBscanTEff = stats.TestEfficiency()
	t.SocetFC = stats.FaultCoverage()
	t.SocetTEff = stats.TestEfficiency()

	bs := bscan.Evaluate(f.Chip)
	t.FscanBscanTAT = bs.TotalTAT

	minArea := points[0]
	minTAT := explore.MinTATPoint(points)
	t.SocetMinArea = minArea.TAT
	t.SocetMinTAT = minTAT.TAT
	return t, nil
}

// seqCoverage runs sampled random sequential fault simulation and returns
// (coverage%, efficiency%). Sequential random testing proves nothing
// untestable, so efficiency equals coverage here, as in the paper's low
// single-digit original-circuit columns.
func seqCoverage(n *gate.Netlist, o Table3Options) (float64, float64, error) {
	faults := SampleFaults(n.Faults(), o.FaultSample, o.Seed)
	stim := fsim.RandomStimulus(n, o.Cycles, o.Seed)
	res, err := fsim.Sequential(n, stim, faults)
	if err != nil {
		return 0, 0, err
	}
	return res.Coverage(), res.Coverage(), nil
}

// Figure10Point is one (area, TAT) sample of the trade-off curve.
type Figure10Point struct {
	Index     int
	Label     string
	ChipCells int
	TAT       int
}

// Figure10 converts enumerated design points into the trade-off series.
func Figure10(points []explore.Point) []Figure10Point {
	out := make([]Figure10Point, len(points))
	for i, p := range points {
		out[i] = Figure10Point{Index: i + 1, Label: p.Label(), ChipCells: p.ChipCells, TAT: p.TAT}
	}
	return out
}

// FormatFigure10 renders the curve as an ASCII scatter of TAT vs area.
func FormatFigure10(points []Figure10Point) string {
	if len(points) == 0 {
		return "(no points)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %10s %10s  %s\n", "point", "area(cells)", "TAT(cyc)", "selection")
	for _, p := range points {
		fmt.Fprintf(&b, "%5d %10d %10d  %s\n", p.Index, p.ChipCells, p.TAT, p.Label)
	}
	return b.String()
}

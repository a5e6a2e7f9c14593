// Package core is the top-level SOCET flow, tying together everything the
// paper describes: core-level DFT (HSCAN insertion and transparency
// version generation, Sections 2-4), per-core combinational ATPG for the
// precomputed test sets, and chip-level DFT (CCG construction, test path
// scheduling, version selection support, controller generation, memory
// BIST; Section 5). The experiment drivers in cmd/ and the benchmarks in
// bench_test.go are thin wrappers over this package.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/atpg"
	"repro/internal/bist"
	"repro/internal/ccg"
	"repro/internal/cell"
	"repro/internal/ctrl"
	"repro/internal/hscan"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/synth"
	"repro/internal/trans"
)

// Options tunes the flow.
type Options struct {
	ATPG *atpg.Options
	// VectorOverride, if non-nil, supplies fixed per-core vector counts
	// instead of running ATPG (used by the worked-example benchmarks that
	// reproduce Section 3's arithmetic with the paper's 105 vectors).
	VectorOverride map[string]int
	// TestSets, when non-nil, serves each logic core's test set from this
	// store instead of running ATPG, and records the ones ATPG generates.
	TestSets *atpg.Store
}

// Artifacts collects per-core flow products.
type Artifacts struct {
	Core     *soc.Core
	Synth    *synth.Result
	ATPG     *atpg.Result
	BISTPlan *bist.Plan // memory cores only
}

// OrigCells returns the core's pre-DFT mapped area.
func (a *Artifacts) OrigCells() int {
	area := a.Synth.Netlist.Area()
	return area.Cells()
}

// ForcedMux is a system-level test multiplexer placed by the design-space
// explorer (Section 5.2's fallback when upgrading core versions becomes
// costlier than a mux). Input muxes connect a PI to the core input; output
// muxes route the core output to a PO.
type ForcedMux struct {
	Core  string
	Port  string
	Input bool
}

// Flow is a prepared SOCET flow over one chip.
type Flow struct {
	Chip  *soc.Chip
	Cores map[string]*Artifacts
	Opts  Options
	// ForcedMuxes are applied to every CCG built by Evaluate.
	ForcedMuxes []ForcedMux
	// Baseline, when non-nil, is the pristine chip this flow's Chip was
	// derived from by fault injection (see Fork and internal/resil).
	// Degraded evaluation schedules it to learn which system-level test
	// muxes the healthy design actually provisioned — fixed hardware a
	// faulted chip cannot grow — and to diagnose missing interconnect.
	Baseline *soc.Chip
}

// Fork returns a flow over ch that shares this flow's prepared artifacts,
// options and forced muxes, recording the original chip as the degraded
// evaluation baseline. The receiver is not modified; this is how the
// fault-injection harness evaluates a perturbed copy of a chip without
// re-running synthesis, HSCAN insertion or ATPG.
func (f *Flow) Fork(ch *soc.Chip) *Flow {
	nf := *f
	nf.Chip = ch
	nf.Baseline = f.Baseline
	if nf.Baseline == nil {
		nf.Baseline = f.Chip
	}
	return &nf
}

// Prepare runs the core-level phase on every core: synthesis (area),
// HSCAN insertion, transparency version ladder, and combinational ATPG
// for the precomputed test set (or its Options.TestSets entry). Memory
// cores get synthesis plus a BIST plan. Every testable core starts at
// its minimum-area version.
func Prepare(ch *soc.Chip, opts *Options) (*Flow, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	f := &Flow{Chip: ch, Cores: map[string]*Artifacts{}}
	if opts != nil {
		f.Opts = *opts
	}
	root := obs.Start(nil, "prepare")
	defer root.End()
	for _, c := range ch.Cores {
		art := &Artifacts{Core: c}
		sp := obs.Start(root, "synth/"+c.Name)
		sr, err := synth.Synthesize(c.RTL)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: synthesize %s: %w", c.Name, err)
		}
		art.Synth = sr
		if c.Memory {
			art.BISTPlan = bist.PlanMemory(c)
			f.Cores[c.Name] = art
			continue
		}
		sp = obs.Start(root, "hscan/"+c.Name)
		scan, err := hscan.Insert(c.RTL)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: hscan %s: %w", c.Name, err)
		}
		c.Scan = scan
		sp = obs.Start(root, "versions/"+c.Name)
		g, err := trans.Build(c.RTL, scan)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: rcg %s: %w", c.Name, err)
		}
		vs, err := trans.Versions(g)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: versions %s: %w", c.Name, err)
		}
		c.Versions = vs
		c.Selected = 0
		if f.Opts.VectorOverride != nil {
			if v, ok := f.Opts.VectorOverride[c.Name]; ok {
				c.Vectors = v
				f.Cores[c.Name] = art
				continue
			}
		}
		res, ok := f.Opts.TestSets.Get(sr.Netlist, f.Opts.ATPG)
		if !ok {
			sp = obs.Start(root, "atpg/"+c.Name)
			res, err = atpg.Generate(sr.Netlist, f.Opts.ATPG)
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("core: atpg %s: %w", c.Name, err)
			}
			f.Opts.TestSets.Put(sr.Netlist, f.Opts.ATPG, res)
		}
		art.ATPG = res
		c.Vectors = res.Stats.Vectors
		f.Cores[c.Name] = art
	}
	return f, nil
}

// Evaluation is one chip-level design point: the CCG, the schedule, the
// controller, and the area/time bottom line for the current core version
// selection.
type Evaluation struct {
	Graph      *ccg.Graph
	Sched      *sched.Result
	Controller *ctrl.Controller
	BISTCycles int
	// Interconnect is the explicit wire-test plan (an extension of the
	// paper's claim that SOCET exercises the interconnect; its cycles are
	// reported separately from the per-core TAT the paper tabulates).
	Interconnect *sched.InterconnectResult

	TransArea cell.Area // transparency logic of the selected versions
	MuxArea   cell.Area // system-level test multiplexers
	CtrlArea  cell.Area // test controller

	TransCells int
	MuxCells   int
	CtrlCells  int
	LogicTAT   int // sum of logic-core TATs
	// TAT is the chip test application time for the logic cores — the
	// quantity the paper's tables report ("we do not consider the memory
	// cores in this discussion", Section 5; their BIST runs concurrently
	// and is reported separately in BISTCycles).
	TAT int
}

// ChipDFTCells is the chip-level SOCET overhead (Table 2, columns 6-7).
func (e *Evaluation) ChipDFTCells() int {
	return e.TransCells + e.MuxCells + e.CtrlCells
}

// ChipDFTGrids is the same overhead in grid area units (used for the
// Table 2 percentage comparison, where cell *size* differences — e.g.
// boundary-scan cells versus simple muxes — matter).
func (e *Evaluation) ChipDFTGrids() int {
	return e.TransArea.Grids() + e.MuxArea.Grids() + e.CtrlArea.Grids()
}

// Evaluate builds the CCG for the chip's current version selection and
// schedules every core test.
func (f *Flow) Evaluate() (*Evaluation, error) {
	return f.evaluate(context.Background(), f.CurrentSelection())
}

// EvaluateCtx is Evaluate honoring ctx: cancellation is checked at phase
// boundaries (after CCG build and after scheduling) and surfaces as
// ctx.Err().
func (f *Flow) EvaluateCtx(ctx context.Context) (*Evaluation, error) {
	return f.evaluate(ctx, f.CurrentSelection())
}

// EvaluateSelection builds the CCG and schedule for an explicit version
// selection (core name -> version index) without touching the chip's own
// selection: cores missing from sel keep their current version,
// out-of-range indices are clamped exactly as SelectVersions would. The
// flow and chip are only read, so concurrent EvaluateSelection calls over
// one prepared flow are safe — this is the reentrant entry point the
// parallel design-space explorer uses.
func (f *Flow) EvaluateSelection(sel map[string]int) (*Evaluation, error) {
	return f.evaluate(context.Background(), f.canonSelection(sel))
}

// EvaluateSelectionCtx is EvaluateSelection honoring ctx; the parallel
// explorer threads its cancellation context through here.
func (f *Flow) EvaluateSelectionCtx(ctx context.Context, sel map[string]int) (*Evaluation, error) {
	return f.evaluate(ctx, f.canonSelection(sel))
}

// CurrentSelection returns the selected version index per testable core.
func (f *Flow) CurrentSelection() map[string]int {
	out := map[string]int{}
	for _, c := range f.Chip.TestableCores() {
		out[c.Name] = c.Selected
	}
	return out
}

// canonSelection completes sel against the current selection and clamps
// indices into each core's ladder, mirroring SelectVersions, so every
// distinct chip configuration has exactly one canonical map.
func (f *Flow) canonSelection(sel map[string]int) map[string]int {
	return canonSelectionOn(f.Chip, sel)
}

// canonSelectionOn canonicalizes sel against an explicit chip; degraded
// evaluation clamps the same requested selection against both the faulted
// chip and its pristine baseline (whose version ladders can differ when a
// fault stripped a core's transparency).
func canonSelectionOn(ch *soc.Chip, sel map[string]int) map[string]int {
	out := map[string]int{}
	for _, c := range ch.TestableCores() {
		idx, ok := sel[c.Name]
		if !ok {
			idx = c.Selected
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(c.Versions) {
			idx = len(c.Versions) - 1
		}
		out[c.Name] = idx
	}
	return out
}

// SelectionKey returns a canonical signature of the given selection plus
// the flow's current forced-mux set — the key of the delta evaluator's
// base registry: two calls yielding the same key produce numerically
// identical Evaluations. Cores are sorted by name; forced muxes are sorted too
// (placement order only affects tie-breaking among equal-arrival paths,
// never the reported times or areas).
func (f *Flow) SelectionKey(sel map[string]int) string {
	sel = f.canonSelection(sel)
	names := make([]string, 0, len(sel))
	for n := range sel {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d;", n, sel[n])
	}
	if len(f.ForcedMuxes) > 0 {
		muxes := make([]string, 0, len(f.ForcedMuxes))
		for _, fm := range f.ForcedMuxes {
			dir := "out"
			if fm.Input {
				dir = "in"
			}
			muxes = append(muxes, fm.Core+"."+fm.Port+"."+dir)
		}
		sort.Strings(muxes)
		b.WriteString("|mux:")
		for _, m := range muxes {
			b.WriteString(m)
			b.WriteString(";")
		}
	}
	return b.String()
}

// evaluate is the selection-pure core of Evaluate/EvaluateSelection: sel
// must be canonical (every testable core present, indices in range). It
// must not write any state reachable from f — the parallel explorer runs
// many evaluations over one flow at once. Cancellation is checked at the
// phase boundaries; a cancelled evaluation returns ctx.Err().
func (f *Flow) evaluate(ctx context.Context, sel map[string]int) (*Evaluation, error) {
	e, _, _, err := f.evaluateFull(ctx, sel)
	return e, err
}

// evaluateFull is evaluate exposing the two extra facts the delta
// evaluator snapshots with a base: the pristine edge count (edges in the
// graph before scheduling appended any test muxes — the splice point of
// ccg.CloneWithVersion) and the forced-mux area.
func (f *Flow) evaluateFull(ctx context.Context, sel map[string]int) (*Evaluation, int, cell.Area, error) {
	root := obs.Start(nil, "evaluate")
	defer root.End()
	var noArea cell.Area
	if err := ctx.Err(); err != nil {
		return nil, 0, noArea, err
	}
	g, forcedArea, err := f.buildGraph(root, f.Chip, sel)
	if err != nil {
		return nil, 0, noArea, err
	}
	pristine := g.EdgeCount()
	if err := ctx.Err(); err != nil {
		return nil, 0, noArea, err
	}
	s, err := sched.Schedule(f.Chip, g)
	if err != nil {
		return nil, 0, noArea, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, noArea, err
	}
	e, err := f.finishEvaluation(root, sel, g, s, forcedArea)
	return e, pristine, forcedArea, err
}

// buildGraph assembles the CCG for ch under sel and wires in the flow's
// forced muxes, returning the graph and the forced-mux area.
func (f *Flow) buildGraph(root *obs.Span, ch *soc.Chip, sel map[string]int) (*ccg.Graph, cell.Area, error) {
	sp := obs.Start(root, "ccg/build")
	g, err := ccg.BuildSelection(ch, sel)
	sp.End()
	var forcedArea cell.Area
	if err != nil {
		return nil, forcedArea, err
	}
	for _, fm := range f.ForcedMuxes {
		width, err := applyForcedMux(ch, g, fm)
		if err != nil {
			return nil, forcedArea, err
		}
		forcedArea.Add(cell.Mux2, width)
	}
	return g, forcedArea, nil
}

// finishEvaluation replays the schedule for physical consistency and fills
// in the controller, areas, interconnect plan and bottom line. It is
// shared by the full, degraded and delta evaluation paths; for the
// degraded path, s covers only the testable subset.
func (f *Flow) finishEvaluation(root *obs.Span, sel map[string]int, g *ccg.Graph, s *sched.Result, forcedArea cell.Area) (*Evaluation, error) {
	if err := sched.Validate(s); err != nil {
		return nil, fmt.Errorf("core: schedule failed replay validation: %w", err)
	}
	e := &Evaluation{Graph: g, Sched: s}
	e.MuxArea = forcedArea
	e.MuxArea.AddArea(s.MuxArea)
	sp := obs.Start(root, "ctrl/generate")
	e.Controller = ctrl.GenerateSelection(f.Chip, s, sel)
	sp.End()
	e.CtrlArea = e.Controller.Area
	for _, c := range f.Chip.TestableCores() {
		if v := c.VersionAt(sel[c.Name]); v != nil {
			e.TransArea.AddArea(v.Area)
		}
	}
	e.TransCells = e.TransArea.Cells()
	e.MuxCells = e.MuxArea.Cells()
	e.CtrlCells = e.CtrlArea.Cells()
	sp = obs.Start(root, "interconnect/sched")
	ir, err := sched.ScheduleInterconnect(f.Chip, g)
	sp.End()
	if err != nil {
		return nil, err
	}
	e.Interconnect = ir
	_, bistCycles, _ := bist.PlanChip(f.Chip)
	e.BISTCycles = bistCycles
	e.LogicTAT = s.TotalTAT
	e.TAT = s.TotalTAT
	obs.C("core.evaluations").Inc()
	return e, nil
}

// applyForcedMux wires one explorer-placed test mux into the CCG and
// returns the muxed port's width. The chip pin is chosen for width
// compatibility (the narrowest pin that still covers the port, else the
// widest available); a chip with no PI (input mux) or no PO (output mux)
// is an error rather than a silent no-op.
func applyForcedMux(ch *soc.Chip, g *ccg.Graph, fm ForcedMux) (int, error) {
	target, ok := g.NodeIndex(fm.Core + "." + fm.Port)
	if !ok {
		return 0, fmt.Errorf("core: forced mux on unknown port %s.%s", fm.Core, fm.Port)
	}
	c, ok := ch.CoreByName(fm.Core)
	if !ok {
		return 0, fmt.Errorf("core: forced mux on unknown core %s", fm.Core)
	}
	width := 1
	if p, ok := c.RTL.PortByName(fm.Port); ok {
		width = p.Width
	}
	if fm.Input {
		pi, err := pickChipPin(g, ch.PIs, width)
		if err != nil {
			return 0, fmt.Errorf("core: forced input mux %s.%s: %w", fm.Core, fm.Port, err)
		}
		g.AddTestMux(pi, target)
	} else {
		po, err := pickChipPin(g, ch.POs, width)
		if err != nil {
			return 0, fmt.Errorf("core: forced output mux %s.%s: %w", fm.Core, fm.Port, err)
		}
		g.AddTestMux(target, po)
	}
	obs.C("core.forced_muxes").Inc()
	return width, nil
}

// pickChipPin selects the chip pin a forced test mux attaches to; the
// policy (narrowest covering pin, widest fallback, name tie-break) now
// lives in sched.PickPin so created and forced muxes can never disagree.
func pickChipPin(g *ccg.Graph, pins []soc.Pin, width int) (int, error) {
	return sched.PickPin(g, pins, width)
}

// Fingerprint returns a cheap structural signature of the flow's chip:
// name, pins, per-core version ladders (count, area and latency per
// version, vector count) and nets. Two flows over structurally identical
// chips fingerprint equal; any difference that could change an
// evaluation's numbers changes the fingerprint. ForcedMuxes are
// deliberately excluded — they mutate during explore.ImproveCtx and are
// already part of every SelectionKey. Shard checkpoints record it to
// refuse resuming over a different chip.
func (f *Flow) Fingerprint() uint64 {
	h := fnv.New64a()
	w := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	wi := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	w(f.Chip.Name)
	for _, p := range f.Chip.PIs {
		w(p.Name)
		wi(p.Width)
	}
	for _, p := range f.Chip.POs {
		w(p.Name)
		wi(p.Width)
	}
	for _, c := range f.Chip.Cores {
		w(c.Name)
		if c.Memory {
			w("mem")
		}
		if c.Disabled != "" {
			w("off:" + c.Disabled)
		}
		wi(c.Vectors)
		wi(len(c.Versions))
		for _, v := range c.Versions {
			wi(v.Area.Cells())
			for _, pairs := range [][]trans.Pair{v.JustPairs(), v.PropPairs()} {
				for _, p := range pairs {
					w(p.In + ">" + p.Out)
					wi(p.Latency)
				}
			}
		}
	}
	for _, n := range f.Chip.Nets {
		w(n.FromCore + "." + n.FromPort + ">" + n.ToCore + "." + n.ToPort)
	}
	return h.Sum64()
}

// SelectVersions applies a version index per core (missing cores keep
// their selection). Out-of-range indices are clamped.
func (f *Flow) SelectVersions(sel map[string]int) {
	for _, c := range f.Chip.TestableCores() {
		if idx, ok := sel[c.Name]; ok {
			if idx < 0 {
				idx = 0
			}
			if idx >= len(c.Versions) {
				idx = len(c.Versions) - 1
			}
			c.Selected = idx
		}
	}
}

// HSCANCells returns the total HSCAN insertion cost over testable cores
// (Table 2, column 4).
func (f *Flow) HSCANCells() int {
	n := 0
	for _, c := range f.Chip.TestableCores() {
		if c.Scan != nil {
			a := c.Scan.Area
			n += a.Cells()
		}
	}
	return n
}

// HSCANGrids returns the HSCAN insertion cost in grid units.
func (f *Flow) HSCANGrids() int {
	n := 0
	for _, c := range f.Chip.TestableCores() {
		if c.Scan != nil {
			a := c.Scan.Area
			n += a.Grids()
		}
	}
	return n
}

// OrigGrids returns the chip's pre-DFT grid area over testable cores.
func (f *Flow) OrigGrids() int {
	n := 0
	for _, c := range f.Chip.TestableCores() {
		if art, ok := f.Cores[c.Name]; ok {
			a := art.Synth.Netlist.Area()
			n += a.Grids()
		}
	}
	return n
}

// OrigCells returns the chip's pre-DFT area over testable cores (Table 2,
// column 2).
func (f *Flow) OrigCells() int {
	n := 0
	for _, c := range f.Chip.TestableCores() {
		if art, ok := f.Cores[c.Name]; ok {
			n += art.OrigCells()
		}
	}
	return n
}

// AggregateTestStats sums the per-core ATPG statistics; under both
// FSCAN-BSCAN and SOCET the full precomputed test set of each core is
// applied losslessly, so the chip-level fault coverage equals this
// aggregate (Table 3's matching FC columns).
func (f *Flow) AggregateTestStats() atpg.Stats {
	var s atpg.Stats
	for _, c := range f.Chip.TestableCores() {
		art, ok := f.Cores[c.Name]
		if !ok || art.ATPG == nil {
			continue
		}
		s.Faults += art.ATPG.Stats.Faults
		s.Detected += art.ATPG.Stats.Detected
		s.Untestable += art.ATPG.Stats.Untestable
		s.Aborted += art.ATPG.Stats.Aborted
		s.Vectors += art.ATPG.Stats.Vectors
	}
	return s
}

// Percent formats part/whole as a percentage.
func Percent(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

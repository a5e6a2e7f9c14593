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
	"sync"

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

	// bistCycles is the chip's memory BIST time: the largest Cycles of
	// the memory cores' BIST plans, since the engines run in parallel.
	// Prepare sets it; fault injection leaves memory cores alone, so a
	// Fork keeps it.
	bistCycles int

	// Test hooks, shared by every Fork made after they are set. crippled
	// makes every flip, the delta evaluator's and the fallback trials',
	// keep all of its source's schedules but the flipped core's, skipping
	// the invalidation rules, so the differential tests can prove they
	// catch stale schedules. checkTrial, when non-nil, sees each fallback
	// trial's flipped pass best, its baseline pass (nil without a
	// baseline) and its chip pass (nil when the baseline pass is
	// degraded).
	crippled   bool
	checkTrial func(f *Flow, best, base, p *pass)
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
			f.bistCycles = max(f.bistCycles, art.BISTPlan.Cycles)
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
// selection. It holds what the explorer compares and what callers print.
// The interconnect test plan is not part of it: it depends only on the
// graph, so sched.ScheduleInterconnect(e.Graph.Chip, e.Graph) derives it
// for any evaluation that needs it.
type Evaluation struct {
	// Selection is the resolved selection (soc.Chip.Resolve) the
	// evaluation ran: one version index per testable core, a degraded
	// evaluation's fallbacks included. It is shared; do not modify it.
	Selection map[string]int
	// Graph is the CCG the schedule ran on, test muxes included.
	Graph      *ccg.Graph
	Sched      *sched.Result
	Controller *ctrl.Controller
	// BISTCycles is the memory cores' BIST time, planned once per flow
	// (the engines run in parallel with each other and with the logic
	// core tests, so it is the longest single BIST run).
	BISTCycles int

	TransArea cell.Area // transparency logic of the selected versions
	MuxArea   cell.Area // system-level test multiplexers
	CtrlArea  cell.Area // test controller

	TransCells int
	MuxCells   int
	CtrlCells  int
	// TAT is the chip test application time for the logic cores, the sum
	// of their scheduled TATs — the quantity the paper's tables report
	// ("we do not consider the memory cores in this discussion",
	// Section 5; their BIST runs concurrently and is reported separately
	// in BISTCycles).
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
	return f.EvaluateCtx(context.Background())
}

// EvaluateCtx is Evaluate honoring ctx: cancellation is checked at phase
// boundaries (before CCG build and after scheduling) and surfaces as
// ctx.Err().
func (f *Flow) EvaluateCtx(ctx context.Context) (*Evaluation, error) {
	e, _, err := f.evaluateFull(ctx, f.CurrentSelection())
	return e, err
}

// EvaluateSelection builds the CCG and schedule for an explicit version
// selection (core name -> version index) without touching the chip's own
// selection. sel is resolved by soc.Chip.Resolve, as SelectVersions
// resolves it: cores missing from it keep their current version and
// out-of-range indices are clamped; the evaluation's Selection is the
// result. The flow and chip are only read, so concurrent
// EvaluateSelection calls over one prepared flow are safe — this is the
// reentrant entry point the parallel design-space explorer uses.
func (f *Flow) EvaluateSelection(sel map[string]int) (*Evaluation, error) {
	return f.EvaluateSelectionCtx(context.Background(), sel)
}

// EvaluateSelectionCtx is EvaluateSelection honoring ctx; the parallel
// explorer threads its cancellation context through here.
func (f *Flow) EvaluateSelectionCtx(ctx context.Context, sel map[string]int) (*Evaluation, error) {
	e, _, err := f.evaluateFull(ctx, f.Chip.Resolve(sel))
	return e, err
}

// CurrentSelection returns the chip's own selection, resolved: one
// version index per testable core.
func (f *Flow) CurrentSelection() map[string]int {
	return f.Chip.Resolve(nil)
}

// evaluateFull is the selection-pure core of every full evaluation: sel
// must be resolved on f.Chip (soc.Chip.Resolve). It must not write any
// state reachable from f — the parallel explorer runs many evaluations
// over one flow at once. Cancellation is checked before building the CCG
// and after scheduling; a cancelled evaluation returns ctx.Err(). Besides
// the evaluation it returns the pass, which the delta evaluator keeps as
// a base to flip.
func (f *Flow) evaluateFull(ctx context.Context, sel map[string]int) (*Evaluation, *pass, error) {
	root := obs.Start(nil, "evaluate")
	defer root.End()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	p, err := f.schedule(root, f.Chip, sel, nil)
	if err != nil {
		return nil, nil, err
	}
	if p.deg.Degraded() {
		return nil, nil, p.deg.Failures[0].Err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	e, err := f.finishEvaluation(root, p, p.s.Cores)
	return e, p, err
}

// pass is one schedule of a chip under one selection.
type pass struct {
	sel   map[string]int
	cores []*soc.Core // the chip's testable cores, as TestableCores lists them
	g     *ccg.Graph  // the CCG, test muxes included
	s     *sched.Result
	deg   *sched.Degradation
	// forced is the area of the flow's forced muxes, and pristine the
	// edge count after them and before any other test mux: the splice
	// point of ccg.CloneWithVersion.
	forced   cell.Area
	pristine int
	// base is the baseline chip's pass whose muxes a fixed pass installed
	// after pristine, or nil; provisioned is their area.
	base        *pass
	provisioned cell.Area

	// bounds of g, computed when the pass first serves a flip; the
	// explorer's workers share bases, hence the Once.
	boundsOnce sync.Once
	bounds     *ccg.Bounds
}

// schedule builds the CCG of ch under sel, wires in the flow's forced
// muxes and schedules it (pass.run): the one graph-and-schedule step
// behind full, baseline and degraded evaluation, and the source every
// flip splices from.
func (f *Flow) schedule(root *obs.Span, ch *soc.Chip, sel map[string]int, base *pass) (*pass, error) {
	sp := obs.Start(root, "ccg/build")
	g, err := ccg.BuildSelection(ch, sel)
	sp.End()
	if err != nil {
		return nil, err
	}
	p := &pass{sel: sel, cores: ch.TestableCores(), g: g}
	for _, fm := range f.ForcedMuxes {
		width, err := applyForcedMux(ch, g, fm)
		if err != nil {
			return nil, err
		}
		p.forced.Add(cell.Mux2, width)
	}
	p.run(base, nil)
	return p, nil
}

// run schedules p's graph, which holds the forced muxes and nothing after
// them, with sched.BuildPartial and keep. With base, p is a fixed pass:
// the baseline's test muxes are fixed silicon, so their edges are
// re-created up front (with their area) for any core to route through,
// and new insertions are refused — broken interconnect found on the test
// floor cannot be patched with hardware the design never had.
func (p *pass) run(base *pass, keep []*sched.CoreSchedule) {
	p.pristine = p.g.EdgeCount()
	p.base = base
	if base != nil {
		for _, cs := range base.s.Cores {
			for _, m := range cs.Muxes {
				obs.C("core.baseline_muxes_preinstalled").Inc()
				fi, fok := p.g.NodeIndex(base.g.Nodes[m.From].Name())
				ti, tok := p.g.NodeIndex(base.g.Nodes[m.To].Name())
				if !fok || !tok {
					continue
				}
				p.g.AddTestMux(fi, ti)
				p.provisioned.Add(cell.Mux2, m.Width)
			}
		}
	}
	p.s, p.deg = sched.BuildPartial(p.g.Chip, p.g, base != nil, keep)
}

// finishEvaluation replays the core schedules this evaluation computed,
// fresh, for physical consistency and fills in the controller, areas and
// bottom line of pass p. It is shared by the full, degraded and delta
// evaluation paths. The full and degraded paths compute every core
// schedule of p (for the degraded path, p.s covers only the testable
// subset); the delta path computes only the cores it re-schedules and
// reuses the others from a base whose evaluation validated them. Each
// core schedule is thus validated once, when it is computed. The mux area
// is the muxes wired in before scheduling (the explorer's forced muxes
// and, in a fixed pass, the baseline's) plus the ones the schedule
// inserted; the TAT is derived from p's core schedules.
func (f *Flow) finishEvaluation(root *obs.Span, p *pass, fresh []*sched.CoreSchedule) (*Evaluation, error) {
	if err := sched.Validate(&sched.Result{Cores: fresh}); err != nil {
		return nil, fmt.Errorf("core: schedule failed replay validation: %w", err)
	}
	e := &Evaluation{Selection: p.sel, Graph: p.g, Sched: p.s}
	e.MuxArea = p.forced
	e.MuxArea.AddArea(p.provisioned)
	e.MuxArea.AddArea(p.s.MuxArea())
	sp := obs.Start(root, "ctrl/generate")
	e.Controller = ctrl.GenerateSelection(f.Chip, p.s, p.sel)
	sp.End()
	e.CtrlArea = e.Controller.Area
	for _, c := range f.Chip.TestableCores() {
		if v := c.VersionAt(p.sel[c.Name]); v != nil {
			e.TransArea.AddArea(v.Area)
		}
	}
	e.TransCells = e.TransArea.Cells()
	e.MuxCells = e.MuxArea.Cells()
	e.CtrlCells = e.CtrlArea.Cells()
	e.BISTCycles = f.bistCycles
	e.TAT = p.s.TotalTAT()
	obs.C("core.evaluations").Inc()
	return e, nil
}

// applyForcedMux wires one explorer-placed test mux into the CCG and
// returns the muxed port's width. The chip pin is chosen by sched.PickPin,
// the policy scheduler-created muxes use too (the narrowest pin that
// still covers the port, else the widest available); a chip with no PI
// (input mux) or no PO (output mux) is an error rather than a silent
// no-op.
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
		pi, err := sched.PickPin(g, ch.PIs, width)
		if err != nil {
			return 0, fmt.Errorf("core: forced input mux %s.%s: %w", fm.Core, fm.Port, err)
		}
		g.AddTestMux(pi, target)
	} else {
		po, err := sched.PickPin(g, ch.POs, width)
		if err != nil {
			return 0, fmt.Errorf("core: forced output mux %s.%s: %w", fm.Core, fm.Port, err)
		}
		g.AddTestMux(target, po)
	}
	obs.C("core.forced_muxes").Inc()
	return width, nil
}

// Fingerprint returns a cheap structural signature of the flow's chip:
// name, pins, per-core version ladders (count, area and latency per
// version, vector count) and nets. Two flows over structurally identical
// chips fingerprint equal; any difference that could change an
// evaluation's numbers changes the fingerprint. ForcedMuxes are
// deliberately excluded — they mutate during explore.ImproveCtx, and the
// delta evaluator matches its bases by them. Shard checkpoints record it
// to refuse resuming over a different chip.
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

// SelectVersions makes sel, resolved by soc.Chip.Resolve, the chip's own
// selection: missing cores keep their version, out-of-range indices are
// clamped.
func (f *Flow) SelectVersions(sel map[string]int) {
	r := f.Chip.Resolve(sel)
	for _, c := range f.Chip.TestableCores() {
		c.Selected = r[c.Name]
	}
}

// HSCANGrids returns the HSCAN insertion cost over testable cores in
// grid units (Table 2, column 4).
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

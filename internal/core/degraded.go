package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ccg"
	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/soc"
)

// CoreDiag is the per-core verdict of a degraded evaluation.
type CoreDiag struct {
	Core     string
	Testable bool
	// For untestable cores: the first unservable port, its phase, the
	// scheduler's reason, and — when the flow can pin it down — the broken
	// interconnect net responsible.
	Port    string
	Input   bool
	Reason  string
	CutEdge string
}

// FallbackStep records one version deviation the degraded evaluation
// accepted because it brought otherwise-untestable cores back: the paper's
// transparency ladder doubles as a spare-route inventory under faults.
type FallbackStep struct {
	Core      string // core whose version was deviated
	Version   int    // version index now in use
	Recovered []string
}

// DegradationReport is the structured outcome of a degraded evaluation.
type DegradationReport struct {
	Chip  string
	Diags []CoreDiag // every testable-eligible core, declaration order
	// CutNets lists interconnect nets present in the baseline chip but
	// missing from the evaluated one (the injected broken wires).
	CutNets   []string
	Fallbacks []FallbackStep
	// Coverage is the vector-weighted fraction of the chip's precomputed
	// test data that can still be applied: sum of testable cores' vector
	// counts over the total (cores without ATPG results weigh 1).
	Coverage                     float64
	VectorsCovered, VectorsTotal int
}

// Degraded reports whether any core is untestable.
func (r *DegradationReport) Degraded() bool {
	for _, d := range r.Diags {
		if !d.Testable {
			return true
		}
	}
	return false
}

// Untestable returns the names of the untestable cores in declaration
// order.
func (r *DegradationReport) Untestable() []string {
	var out []string
	for _, d := range r.Diags {
		if !d.Testable {
			out = append(out, d.Core)
		}
	}
	return out
}

// Format renders the report for command-line output.
func (r *DegradationReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "degradation report (%s): coverage %.1f%% (%d/%d vectors)\n",
		r.Chip, 100*r.Coverage, r.VectorsCovered, r.VectorsTotal)
	for _, n := range r.CutNets {
		fmt.Fprintf(&b, "  broken interconnect: %s\n", n)
	}
	for _, d := range r.Diags {
		if d.Testable {
			fmt.Fprintf(&b, "  %-14s testable\n", d.Core)
			continue
		}
		fmt.Fprintf(&b, "  %-14s UNTESTABLE: %s", d.Core, d.Reason)
		if d.CutEdge != "" {
			fmt.Fprintf(&b, " (cut edge: %s)", d.CutEdge)
		}
		b.WriteString("\n")
	}
	for _, fb := range r.Fallbacks {
		fmt.Fprintf(&b, "  fallback: %s -> Version %d recovered %s\n",
			fb.Core, fb.Version+1, strings.Join(fb.Recovered, ", "))
	}
	return b.String()
}

// DegradedEvaluation is a partial Evaluation over the testable subset of
// the chip plus the diagnosis of what was lost.
type DegradedEvaluation struct {
	*Evaluation
	Report *DegradationReport
}

// EvaluateDegradedCtx evaluates the chip's current selection without
// giving up on the first unreachable port: unservable cores are diagnosed
// and skipped, single-core version fallbacks are tried to reroute around
// the damage, and the result covers the testable subset with a coverage
// fraction. On a healthy flow (no fault-injected Fork) it produces an
// Evaluation bit-identical to Evaluate. Cancellation surfaces as
// ctx.Err().
func (f *Flow) EvaluateDegradedCtx(ctx context.Context) (*DegradedEvaluation, error) {
	return f.evaluateDegraded(ctx, f.CurrentSelection())
}

// muxKey names one port-direction slot of the design's test-mux budget.
func muxKey(core, port string, input bool) string {
	if input {
		return core + "." + port + "/in"
	}
	return core + "." + port + "/out"
}

// preMux is one system-level test multiplexer the healthy design
// provisioned: fixed silicon that survives interconnect faults, so
// degraded evaluation re-creates its CCG edge up front.
type preMux struct {
	from, to string
	width    int
}

// baselineInfo is what degraded evaluation learns from scheduling the
// pristine chip: which test muxes the design provisioned and which CCG
// path served each port when everything worked.
type baselineInfo struct {
	graph *ccg.Graph
	paths map[string][]ccg.Step
	muxes []preMux
}

// baselineFor schedules the pristine baseline chip under the equivalent
// selection. A nil return (with nil error) means the flow has no fault
// baseline: the chip itself is the design, every mux insertion is allowed
// and no cut-edge diagnosis is possible.
func (f *Flow) baselineFor(root *obs.Span, sel map[string]int) (*baselineInfo, error) {
	if f.Baseline == nil {
		return nil, nil
	}
	bsel := canonSelectionOn(f.Baseline, sel)
	bg, _, err := f.buildGraph(root, f.Baseline, bsel)
	if err != nil {
		return nil, fmt.Errorf("core: degraded baseline: %w", err)
	}
	bs, err := sched.Schedule(f.Baseline, bg)
	if err != nil {
		return nil, fmt.Errorf("core: degraded baseline schedule: %w", err)
	}
	info := &baselineInfo{graph: bg, paths: map[string][]ccg.Step{}}
	record := func(core string, ports []sched.PortSchedule, input bool) {
		for _, ps := range ports {
			if ps.Path == nil {
				continue
			}
			info.paths[muxKey(core, ps.Port, input)] = ps.Path.Steps
			if !ps.AddedMux {
				continue
			}
			// The port's own mux edge is the TestMux step touching the
			// port node (other TestMux steps belong to earlier ports).
			portNode := core + "." + ps.Port
			for _, st := range ps.Path.Steps {
				if st.Edge.Kind != ccg.TestMux {
					continue
				}
				end := bg.Nodes[st.Edge.To].Name()
				if !input {
					end = bg.Nodes[st.Edge.From].Name()
				}
				if end != portNode {
					continue
				}
				info.muxes = append(info.muxes, preMux{
					from:  bg.Nodes[st.Edge.From].Name(),
					to:    bg.Nodes[st.Edge.To].Name(),
					width: portWidthOn(f.Baseline, core, ps.Port),
				})
			}
		}
	}
	for _, cs := range bs.Cores {
		record(cs.Core, cs.Inputs, true)
		record(cs.Core, cs.Outputs, false)
	}
	return info, nil
}

// portWidthOn returns the RTL width of a core port, defaulting to 1.
func portWidthOn(ch *soc.Chip, core, port string) int {
	if c, ok := ch.CoreByName(core); ok {
		if p, ok := c.RTL.PortByName(port); ok {
			return p.Width
		}
	}
	return 1
}

// degradedPass is one partial build under one selection.
type degradedPass struct {
	sel    map[string]int
	g      *ccg.Graph
	s      *sched.Result
	deg    *sched.Degradation
	forced cell.Area
	base   *baselineInfo
}

func (f *Flow) runDegradedPass(root *obs.Span, sel map[string]int) (*degradedPass, error) {
	base, err := f.baselineFor(root, sel)
	if err != nil {
		return nil, err
	}
	g, forced, err := f.buildGraph(root, f.Chip, sel)
	if err != nil {
		return nil, err
	}
	var opts *sched.PartialOptions
	if base != nil {
		// The baseline's test muxes are fixed silicon: re-create their
		// edges up front (with their area) so any core may route through
		// them, and refuse new insertions — broken interconnect found on
		// the test floor cannot be patched with hardware the design never
		// had.
		var pre cell.Area
		for _, m := range base.muxes {
			fi, fok := g.NodeIndex(m.from)
			ti, tok := g.NodeIndex(m.to)
			if !fok || !tok {
				continue
			}
			g.AddTestMux(fi, ti)
			pre.Add(cell.Mux2, m.width)
		}
		obs.C("core.baseline_muxes_preinstalled").Add(int64(len(base.muxes)))
		opts = &sched.PartialOptions{
			AllowMux:   func(core, port string, input bool) bool { return false },
			PreMuxArea: pre,
		}
	}
	s, deg, err := sched.BuildPartial(f.Chip, g, opts)
	if err != nil {
		return nil, err
	}
	return &degradedPass{sel: sel, g: g, s: s, deg: deg, forced: forced, base: base}, nil
}

func (f *Flow) evaluateDegraded(ctx context.Context, sel map[string]int) (*DegradedEvaluation, error) {
	root := obs.Start(nil, "evaluate-degraded")
	defer root.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	csel := canonSelectionOn(f.Chip, sel)
	best, err := f.runDegradedPass(root, csel)
	if err != nil {
		return nil, err
	}
	// Version fallback: a cut route through one core's transparency may
	// still exist through a different version of a neighbour (a different
	// rung of Figures 6/8 uses different internal paths). Greedily accept
	// single-core deviations that strictly shrink the untestable set.
	var fallbacks []FallbackStep
	for round := 0; round < 3 && best.deg.Degraded(); round++ {
		improved := false
		for _, c := range f.Chip.TestableCores() {
			for idx := range c.Versions {
				if idx == best.sel[c.Name] {
					continue
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				trial := make(map[string]int, len(best.sel))
				for k, v := range best.sel {
					trial[k] = v
				}
				trial[c.Name] = idx
				p, err := f.runDegradedPass(root, trial)
				if err != nil {
					continue
				}
				if len(p.deg.Skipped) < len(best.deg.Skipped) {
					fallbacks = append(fallbacks, FallbackStep{
						Core:      c.Name,
						Version:   idx,
						Recovered: subtract(best.deg.Skipped, p.deg.Skipped),
					})
					obs.C("core.degraded_fallbacks").Inc()
					best = p
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
		if !improved {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := f.finishEvaluation(root, best.sel, best.g, best.s, best.forced)
	if err != nil {
		return nil, err
	}
	report := f.buildReport(best, fallbacks)
	if report.Degraded() {
		obs.C("core.degraded_evaluations").Inc()
	}
	return &DegradedEvaluation{Evaluation: e, Report: report}, nil
}

// buildReport assembles the per-core diagnoses, cut-net list and coverage.
func (f *Flow) buildReport(p *degradedPass, fallbacks []FallbackStep) *DegradationReport {
	r := &DegradationReport{Chip: f.Chip.Name, Fallbacks: fallbacks}
	if f.Baseline != nil {
		r.CutNets = removedNets(f.Baseline, f.Chip)
	}
	skipped := map[string]bool{}
	for _, name := range p.deg.Skipped {
		skipped[name] = true
	}
	for _, c := range f.Chip.TestableCores() {
		w := c.Vectors
		if w <= 0 {
			w = 1
		}
		r.VectorsTotal += w
		d := CoreDiag{Core: c.Name, Testable: !skipped[c.Name]}
		if d.Testable {
			r.VectorsCovered += w
		} else if pf, ok := p.deg.FailureFor(c.Name); ok {
			d.Port = pf.Port
			d.Input = pf.Input
			d.Reason = pf.Reason
			d.CutEdge = diagnoseCut(p.base, pf, r.CutNets)
		}
		r.Diags = append(r.Diags, d)
	}
	if r.VectorsTotal > 0 {
		r.Coverage = float64(r.VectorsCovered) / float64(r.VectorsTotal)
	}
	return r
}

// diagnoseCut pins an unservable port on a specific missing net: the wire
// edges of the port's baseline path are checked against the nets removed
// from the chip. When the baseline route does not implicate a specific
// net (the failure cascaded through a skipped neighbour, say) but exactly
// one net is missing, that net is the only possible culprit.
func diagnoseCut(base *baselineInfo, pf sched.PortFailure, cutNets []string) string {
	if base == nil || len(cutNets) == 0 || pf.Port == "" {
		// No baseline, no missing nets, or no failing port (a disabled
		// core, say, fails for reasons unrelated to the interconnect).
		return ""
	}
	cut := map[string]bool{}
	for _, n := range cutNets {
		cut[n] = true
	}
	for _, step := range base.paths[muxKey(pf.Core, pf.Port, pf.Input)] {
		if step.Edge.Kind != ccg.Wire {
			continue
		}
		name := base.graph.Nodes[step.Edge.From].Name() + " -> " + base.graph.Nodes[step.Edge.To].Name()
		if cut[name] {
			return name
		}
	}
	if len(cutNets) == 1 {
		return cutNets[0]
	}
	return ""
}

// removedNets returns the nets of base missing from ch, as strings, in
// base declaration order (duplicates kept once per missing instance).
func removedNets(base, ch *soc.Chip) []string {
	have := map[string]int{}
	for _, n := range ch.Nets {
		have[n.String()]++
	}
	var out []string
	for _, n := range base.Nets {
		s := n.String()
		if have[s] > 0 {
			have[s]--
			continue
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// subtract returns the elements of a not present in b, preserving order.
func subtract(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

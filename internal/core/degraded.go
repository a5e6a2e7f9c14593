package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ccg"
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
// fraction. Its Selection names the versions in use, fallbacks included.
// On a healthy flow (no fault-injected Fork) it produces an Evaluation
// bit-identical to Evaluate. Cancellation surfaces as ctx.Err().
func (f *Flow) EvaluateDegradedCtx(ctx context.Context) (*DegradedEvaluation, error) {
	return f.evaluateDegraded(ctx, f.CurrentSelection())
}

// steps returns the steps of the path that served the failed port in
// this (baseline) pass, or nil.
func (p *pass) steps(pf sched.PortFailure) []ccg.Step {
	for _, cs := range p.s.Cores {
		if cs.Core != pf.Core {
			continue
		}
		ports := cs.Outputs
		if pf.Input {
			ports = cs.Inputs
		}
		for _, ps := range ports {
			if ps.Port == pf.Port {
				return ps.Path.Steps
			}
		}
	}
	return nil
}

// evaluateDegraded is EvaluateDegradedCtx under sel, a selection resolved
// on f.Chip.
func (f *Flow) evaluateDegraded(ctx context.Context, sel map[string]int) (*DegradedEvaluation, error) {
	root := obs.Start(nil, "evaluate-degraded")
	defer root.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Over a fault baseline, the pristine chip is scheduled first under
	// the equivalent selection: its test muxes are the ones the design
	// provisioned, and its paths diagnose cut nets. Without one, the chip
	// itself is the design, every mux insertion is allowed and no cut-edge
	// diagnosis is possible.
	var base *pass
	if f.Baseline != nil {
		var err error
		if base, err = f.schedule(root, f.Baseline, f.Baseline.Resolve(sel), nil); err != nil {
			return nil, fmt.Errorf("core: degraded baseline: %w", err)
		}
		if base.deg.Degraded() {
			return nil, fmt.Errorf("core: degraded baseline schedule: %w", base.deg.Failures[0].Err)
		}
	}
	best, err := f.schedule(root, f.Chip, sel, base)
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
				p, err := f.trial(best, trial, c)
				if err != nil {
					continue
				}
				if len(p.deg.Failures) < len(best.deg.Failures) {
					fallbacks = append(fallbacks, FallbackStep{
						Core:      c.Name,
						Version:   idx,
						Recovered: recovered(best.deg, p.deg),
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
	e, err := f.finishEvaluation(root, best, best.s.Cores)
	if err != nil {
		return nil, err
	}
	report := f.buildReport(best, fallbacks)
	if report.Degraded() {
		obs.C("core.degraded_evaluations").Inc()
	}
	return &DegradedEvaluation{Evaluation: e, Report: report}, nil
}

// trial is one fallback trial: the chip's pass under sel, which differs
// from best.sel in core c alone, as the flip step's second caller (see
// delta.go). Over a fault baseline it runs two flips. The baseline pass
// is a non-fixed flip of best.base under the explorer's rules, or
// best.base itself when the baseline's ladder clamps c to the version it
// already has. The chip's pass is then a fixed flip of best when the
// baseline pass provisions the same test muxes as best.base, and a
// spliced full pass otherwise. Either way each pass equals one scheduled
// from scratch. A degraded baseline is an error, as it is for the first
// pass.
func (f *Flow) trial(best *pass, sel map[string]int, c *soc.Core) (p *pass, err error) {
	obs.C("core.fallback_trials").Inc()
	rule := f.flipRule()
	base := best.base
	if f.checkTrial != nil {
		defer func() { f.checkTrial(f, best, base, p) }()
	}
	if base != nil {
		bsel := f.Baseline.Resolve(sel)
		if bsel[c.Name] == base.sel[c.Name] {
			obs.C("core.fallback_cores_reused").Add(int64(len(bsel)))
		} else {
			bc, _ := f.Baseline.CoreByName(c.Name)
			if base, err = f.reflip(best.base, bsel, bc, nil, rule); err != nil {
				return nil, err
			}
		}
		if base.deg.Degraded() {
			return nil, fmt.Errorf("core: degraded baseline schedule: %w", base.deg.Failures[0].Err)
		}
		if !sameMuxes(base, best.base) {
			rule = keepNone
		}
	}
	return f.reflip(best, sel, c, base, rule)
}

// reflip is flip falling back to a spliced full pass when the flip
// is refused. It counts the cores the pass scheduled again and the ones
// it kept.
func (f *Flow) reflip(from *pass, sel map[string]int, c *soc.Core, base *pass, rule keepRule) (*pass, error) {
	p, fresh := flip(from, sel, c, base, rule)
	if p == nil && rule != keepNone {
		p, fresh = flip(from, sel, c, base, keepNone)
	}
	if p == nil {
		return nil, fmt.Errorf("core: fallback trial: cannot splice %s into the CCG", c.Name)
	}
	reused := len(p.s.Cores) - len(fresh)
	obs.C("core.fallback_cores_reused").Add(int64(reused))
	obs.C("core.fallback_cores_rescheduled").Add(int64(len(sel) - reused))
	return p, nil
}

// sameMuxes reports whether every core of two baseline passes inserted
// the same test muxes, so that a fixed pass installs the same edges from
// either.
func sameMuxes(a, b *pass) bool {
	return a == b || slices.EqualFunc(a.s.Cores, b.s.Cores, func(x, y *sched.CoreSchedule) bool {
		return slices.Equal(x.Muxes, y.Muxes)
	})
}

// buildReport assembles the per-core diagnoses, cut-net list and coverage.
func (f *Flow) buildReport(p *pass, fallbacks []FallbackStep) *DegradationReport {
	r := &DegradationReport{Chip: f.Chip.Name, Fallbacks: fallbacks}
	netsOnly := false
	if f.Baseline != nil {
		r.CutNets = removedNets(f.Baseline, f.Chip)
		netsOnly = coresIntact(f.Baseline, f.Chip)
	}
	for _, c := range f.Chip.TestableCores() {
		w := c.Vectors
		if w <= 0 {
			w = 1
		}
		r.VectorsTotal += w
		d := CoreDiag{Core: c.Name, Testable: true}
		if pf, ok := p.deg.FailureFor(c.Name); ok {
			d = CoreDiag{Core: c.Name, Port: pf.Port, Input: pf.Input, Reason: pf.Reason,
				CutEdge: diagnoseCut(p.base, pf, r.CutNets, netsOnly)}
		} else {
			r.VectorsCovered += w
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
// one net is missing and the faults changed nothing else (netsOnly), that
// net is the only possible culprit.
func diagnoseCut(base *pass, pf sched.PortFailure, cutNets []string, netsOnly bool) string {
	if base == nil || len(cutNets) == 0 || pf.Port == "" {
		// No baseline, no missing nets, or no failing port (a disabled
		// core, say, fails for reasons unrelated to the interconnect).
		return ""
	}
	cut := map[string]bool{}
	for _, n := range cutNets {
		cut[n] = true
	}
	for _, step := range base.steps(pf) {
		if step.Edge.Kind != ccg.Wire {
			continue
		}
		name := base.g.Nodes[step.Edge.From].Name() + " -> " + base.g.Nodes[step.Edge.To].Name()
		if cut[name] {
			return name
		}
	}
	if len(cutNets) == 1 && netsOnly {
		return cutNets[0]
	}
	return ""
}

// coresIntact reports whether every core of ch keeps base's Disabled text
// and version objects, that is, whether ch differs from base in its nets
// alone. soc.Chip.Clone shares version objects and the version faults
// replace them, so pointer equality is exact.
func coresIntact(base, ch *soc.Chip) bool {
	if len(base.Cores) != len(ch.Cores) {
		return false
	}
	for i, bc := range base.Cores {
		c := ch.Cores[i]
		if c.Disabled != bc.Disabled || !slices.Equal(c.Versions, bc.Versions) {
			return false
		}
	}
	return true
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

// recovered returns the cores skipped before but not after, in
// declaration order.
func recovered(before, after *sched.Degradation) []string {
	var out []string
	for _, pf := range before.Failures {
		if _, ok := after.FailureFor(pf.Core); !ok {
			out = append(out, pf.Core)
		}
	}
	return out
}

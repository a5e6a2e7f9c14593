package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/sched"
)

// SetCrippleInvalidation flips the flow's test-only hook that skips the
// invalidation rules: every flip of f and of every Fork of f made
// afterwards, in a delta evaluator or a degraded fallback trial, keeps
// stale schedules for every core but the changed one. The differential
// tests use it to prove their comparisons detect a stale-invalidation
// bug.
func (f *Flow) SetCrippleInvalidation(v bool) { f.crippled = v }

// SetTamperRescheduled flips the delta evaluator's test-only hook that
// corrupts the TAT of every core the delta path re-schedules, before
// validation. The tamper test uses it to prove those schedules are
// validated: the corrupted delta must be refused.
func (d *DeltaEvaluator) SetTamperRescheduled(v bool) { d.tamperRescheduled = v }

// TrialCheck is the outcome of one degraded fallback trial under
// CheckFallbackTrials.
type TrialCheck struct {
	// Err is nil, or how one of the trial's passes differs from a pass of
	// the same selection scheduled from scratch.
	Err error
	// Reused counts the core schedules the trial's passes kept from the
	// passes they flip.
	Reused int
	// AfterFallback reports that the flipped pass is an accepted
	// fallback's: the trial flips a flip.
	AfterFallback bool
}

// CheckFallbackTrials installs a test hook on the degraded fallback
// trials of f and of every Fork of f made afterwards: each trial's
// baseline and chip passes are compared with from-scratch passes of the
// same selections, and report receives the outcome.
func (f *Flow) CheckFallbackTrials(report func(TrialCheck)) {
	f.checkTrial = func(f *Flow, best, base, p *pass) {
		report(TrialCheck{
			Err:           compareTrial(f, base, p),
			Reused:        reusedFrom(best.base, base) + reusedFrom(best, p),
			AfterFallback: !maps.Equal(best.sel, f.CurrentSelection()),
		})
	}
}

// reusedFrom counts the core schedules p shares with from.
func reusedFrom(from, p *pass) int {
	if from == nil || p == nil {
		return 0
	}
	n := 0
	for _, cs := range p.s.Cores {
		if slices.Contains(from.s.Cores, cs) {
			n++
		}
	}
	return n
}

// compareTrial schedules a trial's selections from scratch and compares
// its passes with them: base (nil without a baseline) and p (nil when
// base is degraded).
func compareTrial(f *Flow, base, p *pass) error {
	var want *pass
	if base != nil {
		wb, err := f.schedule(nil, f.Baseline, base.sel, nil)
		if err != nil {
			return err
		}
		if err := samePass(base, wb); err != nil {
			return fmt.Errorf("baseline pass: %w", err)
		}
		want = wb
	}
	if p == nil {
		if base == nil || !base.deg.Degraded() {
			return errors.New("trial has no chip pass")
		}
		return nil
	}
	wp, err := f.schedule(nil, f.Chip, p.sel, want)
	if err != nil {
		return err
	}
	if err := samePass(p, wp); err != nil {
		return fmt.Errorf("chip pass: %w", err)
	}
	return nil
}

// samePass compares two passes by their failures, mux areas, graphs and
// per-core schedule signatures. Nodes are compared by name, never edges by
// ID: a kept schedule's steps point into an older graph.
func samePass(a, b *pass) error {
	if !slices.Equal(failures(a), failures(b)) {
		return fmt.Errorf("failures differ:\n%v\n%v", failures(a), failures(b))
	}
	if a.forced != b.forced || a.provisioned != b.provisioned || a.pristine != b.pristine {
		return fmt.Errorf("mux areas or pristine edge counts differ")
	}
	if sa, sb := passSignature(a), passSignature(b); sa != sb {
		return fmt.Errorf("signatures differ:\n--- got ---\n%s--- want ---\n%s", sa, sb)
	}
	return nil
}

// failures lists a pass's failures as (core, port, input, reason).
func failures(p *pass) []string {
	var out []string
	for _, pf := range p.deg.Failures {
		out = append(out, fmt.Sprintf("%s.%s input=%v: %s", pf.Core, pf.Port, pf.Input, pf.Reason))
	}
	return out
}

// passSignature renders a pass's graph edges and core schedules by node
// names, starts, latencies and edge kinds.
func passSignature(p *pass) string {
	var b strings.Builder
	name := func(n int) string { return p.g.Nodes[n].Name() }
	for _, e := range p.g.Edges {
		fmt.Fprintf(&b, "edge %s->%s k%d l%d %v\n", name(e.From), name(e.To), e.Kind, e.Latency, e.Res)
	}
	for _, cs := range p.s.Cores {
		fmt.Fprintf(&b, "core %s J=%d O=%d tail=%d V=%d TAT=%d\n",
			cs.Core, cs.Period, cs.ObserveLat, cs.Tail, cs.HSCANVectors, cs.TAT)
		for _, m := range cs.Muxes {
			fmt.Fprintf(&b, "  mux %s->%s %s input=%v w%d\n", name(m.From), name(m.To), m.Port, m.Input, m.Width)
		}
		for _, ports := range [][]sched.PortSchedule{cs.Inputs, cs.Outputs} {
			for _, ps := range ports {
				fmt.Fprintf(&b, "  %s arr=%d mux=%v:", ps.Port, ps.Arrival, ps.AddedMux)
				for _, st := range ps.Path.Steps {
					fmt.Fprintf(&b, " %s->%s@%d+%d/k%d", name(st.Edge.From), name(st.Edge.To),
						st.Start, st.Edge.Latency, st.Edge.Kind)
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

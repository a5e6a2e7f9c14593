package sched

import (
	"errors"
	"fmt"

	"repro/internal/ccg"
	"repro/internal/obs"
	"repro/internal/soc"
)

// UnreachableError reports one core port the scheduler could not serve: no
// justification (Input) or propagation path exists, and either inserting a
// system-level test mux did not help or the insertion was denied because
// the design's DFT hardware is fixed (MuxDenied).
type UnreachableError struct {
	Core, Port string
	Input      bool
	MuxDenied  bool
}

func (e *UnreachableError) Error() string {
	verb := "unobservable"
	if e.Input {
		verb = "unreachable"
	}
	if e.MuxDenied {
		return fmt.Sprintf("sched: %s.%s %s and no test mux is provisioned", e.Core, e.Port, verb)
	}
	return fmt.Sprintf("sched: %s.%s %s even with a test mux", e.Core, e.Port, verb)
}

// PortFailure is one diagnosed scheduling failure.
type PortFailure struct {
	Core, Port string
	Input      bool   // justification (true) or observation (false) failure
	Reason     string // human-readable cause
	Err        error  // the error Schedule fails with
}

// Degradation collects everything BuildPartial had to give up on.
type Degradation struct {
	// Failures lists the skipped cores' failures, in declaration order. A
	// core is skipped on its first unservable port.
	Failures []PortFailure
}

// Degraded reports whether any core had to be skipped.
func (d *Degradation) Degraded() bool { return d != nil && len(d.Failures) > 0 }

// FailureFor returns the recorded failure of the named core, if any.
func (d *Degradation) FailureFor(core string) (PortFailure, bool) {
	if d == nil {
		return PortFailure{}, false
	}
	for _, f := range d.Failures {
		if f.Core == core {
			return f, true
		}
	}
	return PortFailure{}, false
}

// BuildPartial is the per-core schedule loop of Section 5.1, shared by
// full, delta and degraded evaluation. Instead of aborting the whole chip
// on the first unservable port, it skips the affected core, rolls back
// any test muxes speculatively inserted for it, records a diagnosis, and
// schedules every remaining core. The returned Result covers exactly the
// testable subset and passes Validate; the Degradation names what was
// lost and why. fixed means the chip's test muxes are fixed hardware: a
// port no path serves fails instead of getting a new mux. Degraded
// evaluation of a faulted chip pre-installs the muxes the healthy design
// provisioned and sets it — broken interconnect discovered on the test
// floor cannot be patched with new silicon.
//
// keep, when non-nil, holds one entry per testable core. A non-nil entry
// stands in for its core: it is appended to the result as is, and its
// recorded test muxes are added to g in order, so the cores after it see
// the graph scheduling it would have left. The delta evaluator keeps the
// schedules a one-core version flip cannot change.
func BuildPartial(ch *soc.Chip, g *ccg.Graph, fixed bool, keep []*CoreSchedule) (*Result, *Degradation) {
	root := obs.Start(nil, "sched")
	defer root.End()
	cores := ch.TestableCores()
	res := &Result{Cores: make([]*CoreSchedule, 0, len(cores))}
	deg := &Degradation{}
	fi := ccg.GetFinder()
	defer ccg.PutFinder(fi)
	skip := func(pf PortFailure) {
		deg.Failures = append(deg.Failures, pf)
		obs.C("sched.cores_skipped").Inc()
	}
	for i, c := range cores {
		if keep != nil && keep[i] != nil {
			for _, m := range keep[i].Muxes {
				g.AddTestMux(m.From, m.To)
			}
			res.Cores = append(res.Cores, keep[i])
			continue
		}
		if c.Disabled != "" {
			skip(PortFailure{Core: c.Name, Reason: "core disabled: " + c.Disabled,
				Err: fmt.Errorf("sched: core %s disabled: %s", c.Name, c.Disabled)})
			continue
		}
		// A failing core leaves no trace: test muxes inserted for its
		// earlier ports are rolled back.
		edgeMark := g.EdgeCount()
		var sp *obs.Span
		if root != nil { // the span name allocates; build it only when tracing
			sp = root.Start("sched/" + c.Name)
		}
		cs, err := scheduleCore(ch, g, fi, c, fixed)
		sp.End()
		if err != nil {
			g.TruncateEdges(edgeMark)
			pf := PortFailure{Core: c.Name, Reason: err.Error(), Err: err}
			var ue *UnreachableError
			if errors.As(err, &ue) {
				pf.Port = ue.Port
				pf.Input = ue.Input
			}
			skip(pf)
			continue
		}
		res.Cores = append(res.Cores, cs)
		obs.C("sched.cores_scheduled").Inc()
	}
	return res, deg
}

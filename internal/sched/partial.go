package sched

import (
	"errors"
	"fmt"

	"repro/internal/ccg"
	"repro/internal/cell"
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

// PartialOptions tunes BuildPartial.
type PartialOptions struct {
	// AllowMux reports whether a missing path at the named core port may
	// be repaired by inserting a new system-level test mux. nil allows
	// every insertion (design-time semantics, identical to Schedule).
	// Degraded evaluation of a faulted chip pre-installs the muxes the
	// healthy design actually provisioned and denies every new one:
	// broken interconnect discovered on the test floor cannot be patched
	// with new silicon.
	AllowMux func(core, port string, input bool) bool
	// PreMuxArea seeds the result's mux area with the cost of test-mux
	// edges the caller installed into the graph before scheduling.
	PreMuxArea cell.Area
}

// PortFailure is one diagnosed scheduling failure.
type PortFailure struct {
	Core, Port string
	Input      bool   // justification (true) or observation (false) failure
	Reason     string // human-readable cause
}

// Degradation collects everything BuildPartial had to give up on.
type Degradation struct {
	Failures []PortFailure
	// Skipped lists the cores excluded from the schedule, in declaration
	// order. A core is skipped on its first unservable port.
	Skipped []string
}

// Degraded reports whether any core had to be skipped.
func (d *Degradation) Degraded() bool { return d != nil && len(d.Skipped) > 0 }

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

// BuildPartial is the degrading counterpart of Schedule: instead of
// aborting the whole chip on the first unservable port, it skips the
// affected core, rolls back any test muxes speculatively inserted for it,
// records a diagnosis, and schedules every remaining core. The returned
// Result covers exactly the testable subset and passes Validate; the
// Degradation names what was lost and why. With a healthy chip and a nil
// (or all-true) AllowMux it behaves bit-identically to Schedule.
func BuildPartial(ch *soc.Chip, g *ccg.Graph, opts *PartialOptions) (*Result, *Degradation, error) {
	root := obs.Start(nil, "sched/partial")
	defer root.End()
	var allow func(core, port string, input bool) bool
	res := &Result{}
	if opts != nil {
		allow = opts.AllowMux
		res.MuxArea = opts.PreMuxArea
	}
	deg := &Degradation{}
	fi := ccg.GetFinder()
	defer ccg.PutFinder(fi)
	skip := func(c *soc.Core, pf PortFailure) {
		deg.Failures = append(deg.Failures, pf)
		deg.Skipped = append(deg.Skipped, c.Name)
		obs.C("sched.ports_unreachable").Inc()
		obs.C("sched.cores_skipped").Inc()
	}
	for _, c := range ch.TestableCores() {
		if c.Disabled != "" {
			skip(c, PortFailure{Core: c.Name, Reason: "core disabled: " + c.Disabled})
			continue
		}
		// Snapshot so a failing core leaves no trace: test muxes inserted
		// for its earlier ports are rolled back along with their area.
		edgeMark := g.EdgeCount()
		muxMark := res.MuxArea
		sp := obs.Start(root, "sched/"+c.Name)
		cs, err := scheduleCore(ch, g, fi, c, res, allow)
		sp.End()
		if err != nil {
			g.TruncateEdges(edgeMark)
			res.MuxArea = muxMark
			pf := PortFailure{Core: c.Name, Reason: err.Error()}
			var ue *UnreachableError
			if errors.As(err, &ue) {
				pf.Port = ue.Port
				pf.Input = ue.Input
			}
			skip(c, pf)
			continue
		}
		res.Cores = append(res.Cores, cs)
		res.TotalTAT += cs.TAT
		obs.C("sched.cores_scheduled").Inc()
	}
	return res, deg, nil
}

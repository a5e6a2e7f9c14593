package sched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ccg"
)

// Validate replays a schedule and checks its physical consistency:
//
//   - every path is causally ordered (data cannot enter an edge before it
//     has arrived at the edge's source);
//   - within one core's justification (and, separately, observation)
//     phase, no shared transparency resource is used by two overlapping
//     transfers — the no-pipelining rule of Section 3;
//   - each path's reported arrival matches its final step.
//
// It is the token-flow counterpart of the analytic TAT model: if Validate
// passes, the per-vector schedule can actually be executed by the test
// controller.
func Validate(res *Result) error {
	var uses []use
	var err error
	for _, cs := range res.Cores {
		if uses, err = validatePhase(cs.Core, "justify", cs.Inputs, uses); err != nil {
			return err
		}
		if uses, err = validatePhase(cs.Core, "observe", cs.Outputs, uses); err != nil {
			return err
		}
		// The period covers the slowest input delivery.
		for _, in := range cs.Inputs {
			if in.Arrival > cs.Period {
				return fmt.Errorf("sched: %s: input %s arrives at %d after the period %d",
					cs.Core, in.Port, in.Arrival, cs.Period)
			}
		}
		if cs.TAT != cs.HSCANVectors*cs.Period+cs.Tail {
			return fmt.Errorf("sched: %s: TAT %d != %d*%d+%d", cs.Core, cs.TAT, cs.HSCANVectors, cs.Period, cs.Tail)
		}
	}
	return nil
}

// PipelinedTAT recomputes each core's test time under the optimistic
// assumption the paper explicitly rejects ("we have assumed that test data
// cannot be pipelined through a core", Section 3): if a core's
// transparency stages could hold independent vectors, consecutive vectors
// would enter every bottleneck-edge-latency cycles instead of waiting for
// the full end-to-end delivery. The gap between this bound and the real
// schedule quantifies what the no-pipelining assumption costs.
func PipelinedTAT(res *Result) map[string]int {
	out := make(map[string]int, len(res.Cores))
	for _, cs := range res.Cores {
		period := 1
		for _, in := range cs.Inputs {
			if in.Path == nil {
				continue
			}
			for _, s := range in.Path.Steps {
				if s.Edge.Latency > period {
					period = s.Edge.Latency
				}
			}
		}
		out[cs.Core] = cs.HSCANVectors*period + cs.Tail
	}
	return out
}

// use is one step's hold on a shared resource.
type use struct {
	res        ccg.ResKey
	start, end int
	port       string
}

// validatePhase checks one phase's paths. uses is scratch space, returned
// for the next phase to reuse.
func validatePhase(core, phase string, ports []PortSchedule, uses []use) ([]use, error) {
	uses = uses[:0]
	for _, ps := range ports {
		if ps.Path == nil {
			return uses, fmt.Errorf("sched: %s: %s %s has no path", core, phase, ps.Port)
		}
		at := 0
		for i, step := range ps.Path.Steps {
			if step.Start < at {
				return uses, fmt.Errorf("sched: %s: %s %s step %d starts at %d before data arrives at %d",
					core, phase, ps.Port, i, step.Start, at)
			}
			if step.End != step.Start+step.Edge.Latency {
				return uses, fmt.Errorf("sched: %s: %s %s step %d spans [%d,%d) but edge latency is %d",
					core, phase, ps.Port, i, step.Start, step.End, step.Edge.Latency)
			}
			at = step.End
			for _, rk := range step.Edge.Res {
				uses = append(uses, use{rk, step.Start, step.End, ps.Port})
			}
		}
		if at != ps.Arrival {
			return uses, fmt.Errorf("sched: %s: %s %s reports arrival %d but the path ends at %d",
				core, phase, ps.Port, ps.Arrival, at)
		}
	}
	// Group the uses by resource in (Core, Edge) order, each group by
	// start, and report the first overlap of two consecutive uses: the
	// first conflicting resource in (Core, Edge) order, so the error does
	// not depend on the order paths were listed in.
	slices.SortStableFunc(uses, func(a, b use) int {
		if c := strings.Compare(a.res.Core, b.res.Core); c != 0 {
			return c
		}
		if c := cmp.Compare(a.res.Edge, b.res.Edge); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	for i := 1; i < len(uses); i++ {
		p, u := uses[i-1], uses[i]
		if p.res == u.res && u.start < p.end {
			return uses, fmt.Errorf("sched: %s: %s: resource %s/%d used by %s [%d,%d) and %s [%d,%d) simultaneously",
				core, phase, u.res.Core, u.res.Edge, p.port, p.start, p.end, u.port, u.start, u.end)
		}
	}
	return uses, nil
}

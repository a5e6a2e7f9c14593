package sched

import (
	"fmt"
	"sort"

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
	for _, cs := range res.Cores {
		if err := validatePhase(cs.Core, "justify", cs.Inputs); err != nil {
			return err
		}
		if err := validatePhase(cs.Core, "observe", cs.Outputs); err != nil {
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

type use struct {
	start, end int
	port       string
}

func validatePhase(core, phase string, ports []PortSchedule) error {
	resUses := map[ccg.ResKey][]use{}
	for _, ps := range ports {
		if ps.Path == nil {
			return fmt.Errorf("sched: %s: %s %s has no path", core, phase, ps.Port)
		}
		at := 0
		for i, step := range ps.Path.Steps {
			if step.Start < at {
				return fmt.Errorf("sched: %s: %s %s step %d starts at %d before data arrives at %d",
					core, phase, ps.Port, i, step.Start, at)
			}
			if step.End != step.Start+step.Edge.Latency {
				return fmt.Errorf("sched: %s: %s %s step %d spans [%d,%d) but edge latency is %d",
					core, phase, ps.Port, i, step.Start, step.End, step.Edge.Latency)
			}
			at = step.End
			for _, rk := range step.Edge.Res {
				resUses[rk] = append(resUses[rk], use{step.Start, step.End, ps.Port})
			}
		}
		if at != ps.Arrival {
			return fmt.Errorf("sched: %s: %s %s reports arrival %d but the path ends at %d",
				core, phase, ps.Port, ps.Arrival, at)
		}
	}
	// Of several conflicting resources, report the first in (Core, Edge)
	// order, so the error does not depend on map iteration order.
	var conflict error
	var at ccg.ResKey
	for rk, uses := range resUses {
		sort.Slice(uses, func(i, j int) bool { return uses[i].start < uses[j].start })
		for i := 1; i < len(uses); i++ {
			if uses[i].start < uses[i-1].end {
				if conflict == nil || rk.Core < at.Core || (rk.Core == at.Core && rk.Edge < at.Edge) {
					at = rk
					conflict = fmt.Errorf("sched: %s: %s: resource %s/%d used by %s [%d,%d) and %s [%d,%d) simultaneously",
						core, phase, rk.Core, rk.Edge,
						uses[i-1].port, uses[i-1].start, uses[i-1].end,
						uses[i].port, uses[i].start, uses[i].end)
				}
				break
			}
		}
	}
	return conflict
}

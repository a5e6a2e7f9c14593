package sched

import (
	"strings"
	"testing"

	"repro/internal/ccg"
)

// Helpers building tiny hand-crafted schedules so each Validate failure
// branch can be triggered in isolation.

func steps(specs ...[3]int) []ccg.Step {
	var out []ccg.Step
	for _, s := range specs {
		out = append(out, ccg.Step{
			Edge:  &ccg.Edge{Latency: s[2]},
			Start: s[0],
			End:   s[1],
		})
	}
	return out
}

func pathOf(ss []ccg.Step) *ccg.PathResult {
	arr := 0
	if n := len(ss); n > 0 {
		arr = ss[n-1].End
	}
	return &ccg.PathResult{Steps: ss, Arrival: arr}
}

// okResult returns a minimal single-core schedule that passes Validate;
// tests then corrupt one aspect at a time.
func okResult() *Result {
	in := pathOf(steps([3]int{0, 2, 2}, [3]int{2, 5, 3}))
	out := pathOf(steps([3]int{0, 1, 1}))
	return &Result{Cores: []*CoreSchedule{{
		Core:         "C",
		Inputs:       []PortSchedule{{Port: "A", Path: in, Arrival: 5}},
		Outputs:      []PortSchedule{{Port: "Z", Path: out, Arrival: 1}},
		Period:       5,
		Tail:         1,
		HSCANVectors: 3,
		TAT:          3*5 + 1,
	}}}
}

func wantErr(t *testing.T, res *Result, frag string) {
	t.Helper()
	err := Validate(res)
	if err == nil {
		t.Fatalf("Validate accepted a corrupt schedule (want error containing %q)", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("Validate error = %q, want it to mention %q", err, frag)
	}
}

func TestValidateAcceptsConsistentSchedule(t *testing.T) {
	if err := Validate(okResult()); err != nil {
		t.Fatalf("baseline schedule rejected: %v", err)
	}
}

func TestValidateNilPath(t *testing.T) {
	res := okResult()
	res.Cores[0].Inputs[0].Path = nil
	wantErr(t, res, "has no path")

	res = okResult()
	res.Cores[0].Outputs[0].Path = nil
	wantErr(t, res, "has no path")
}

func TestValidateTruncatedPath(t *testing.T) {
	// Dropping the final step leaves the reported arrival past the path end.
	res := okResult()
	p := res.Cores[0].Inputs[0].Path
	p.Steps = p.Steps[:1]
	wantErr(t, res, "reports arrival 5 but the path ends at 2")
}

func TestValidateStepBeforeDataArrives(t *testing.T) {
	// Second step starts at 1 although the first delivers at 2.
	res := okResult()
	ss := res.Cores[0].Inputs[0].Path.Steps
	ss[1].Start, ss[1].End = 1, 4
	wantErr(t, res, "starts at 1 before data arrives at 2")
}

func TestValidateStepSpanMismatchesLatency(t *testing.T) {
	res := okResult()
	ss := res.Cores[0].Inputs[0].Path.Steps
	ss[1].End = ss[1].Start + 1 // edge latency is 3
	wantErr(t, res, "but edge latency is 3")
}

func TestValidateArrivalAfterPeriod(t *testing.T) {
	res := okResult()
	res.Cores[0].Period = 4 // input arrives at 5
	res.Cores[0].TAT = 3*4 + 1
	wantErr(t, res, "arrives at 5 after the period 4")
}

func TestValidateTATFormula(t *testing.T) {
	res := okResult()
	res.Cores[0].TAT++
	wantErr(t, res, "TAT 17 != 3*5+1")
}

func TestValidateOverlappingResourceUse(t *testing.T) {
	// Two input ports drive paths through the same transparency resource
	// with overlapping occupancy [0,3) and [2,5).
	rk := ccg.ResKey{Core: "T", Edge: 7}
	mk := func(start int) *ccg.PathResult {
		s := ccg.Step{Edge: &ccg.Edge{Latency: 3, Res: []ccg.ResKey{rk}}, Start: start, End: start + 3}
		return &ccg.PathResult{Steps: []ccg.Step{s}, Arrival: start + 3}
	}
	res := &Result{Cores: []*CoreSchedule{{
		Core: "C",
		Inputs: []PortSchedule{
			{Port: "A", Path: mk(0), Arrival: 3},
			{Port: "B", Path: mk(2), Arrival: 5},
		},
		Period:       5,
		HSCANVectors: 1,
		TAT:          5,
	}}}
	wantErr(t, res, "used by A [0,3) and B [2,5) simultaneously")

	// Back-to-back occupancy [0,3) then [3,6) is legal.
	res.Cores[0].Inputs[1] = PortSchedule{Port: "B", Path: mk(3), Arrival: 6}
	res.Cores[0].Period = 6
	res.Cores[0].TAT = 6
	if err := Validate(res); err != nil {
		t.Fatalf("back-to-back resource reuse rejected: %v", err)
	}
}

func TestValidateSeparatePhasesShareResources(t *testing.T) {
	// Justification and observation are distinct phases: the same resource
	// may be occupied at the same instants in both without conflict.
	rk := ccg.ResKey{Core: "T", Edge: 1}
	mk := func() *ccg.PathResult {
		s := ccg.Step{Edge: &ccg.Edge{Latency: 2, Res: []ccg.ResKey{rk}}, Start: 0, End: 2}
		return &ccg.PathResult{Steps: []ccg.Step{s}, Arrival: 2}
	}
	res := &Result{Cores: []*CoreSchedule{{
		Core:         "C",
		Inputs:       []PortSchedule{{Port: "A", Path: mk(), Arrival: 2}},
		Outputs:      []PortSchedule{{Port: "Z", Path: mk(), Arrival: 2}},
		Period:       2,
		HSCANVectors: 1,
		TAT:          2,
	}}}
	if err := Validate(res); err != nil {
		t.Fatalf("cross-phase resource sharing rejected: %v", err)
	}
}

func TestValidateReportsConflictsDeterministically(t *testing.T) {
	// Two ports both occupy resources X/1 and Y/2 over [0,2): the schedule
	// conflicts on both, and every call must report the same one.
	x, y := ccg.ResKey{Core: "X", Edge: 1}, ccg.ResKey{Core: "Y", Edge: 2}
	mk := func() *ccg.PathResult {
		s := ccg.Step{Edge: &ccg.Edge{Latency: 2, Res: []ccg.ResKey{y, x}}, Start: 0, End: 2}
		return &ccg.PathResult{Steps: []ccg.Step{s}, Arrival: 2}
	}
	res := &Result{Cores: []*CoreSchedule{{
		Core: "C",
		Inputs: []PortSchedule{
			{Port: "A", Path: mk(), Arrival: 2},
			{Port: "B", Path: mk(), Arrival: 2},
		},
		Period:       2,
		HSCANVectors: 1,
		TAT:          2,
	}}}
	wantErr(t, res, "resource X/1 used by A [0,2) and B [0,2) simultaneously")
	first := Validate(res).Error()
	for i := 0; i < 50; i++ {
		if got := Validate(res).Error(); got != first {
			t.Fatalf("call %d reported %q, the first call %q", i, got, first)
		}
	}
}

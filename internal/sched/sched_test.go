package sched_test

import (
	"testing"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/systems"
)

// section3Flow prepares System 1 with the paper's DISPLAY vector count
// (105) so the Section 3 arithmetic is directly comparable.
func section3Flow(t testing.TB) *core.Flow {
	t.Helper()
	f, err := core.Prepare(systems.System1(), &core.Options{
		VectorOverride: map[string]int{"CPU": 100, "PREPROCESSOR": 100, "DISPLAY": 105},
	})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return f
}

func scheduleOf(t testing.TB, f *core.Flow) (*sched.Result, *ccg.Graph) {
	t.Helper()
	g, err := ccg.Build(f.Chip)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Schedule(f.Chip, g)
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func TestScheduleAllCores(t *testing.T) {
	f := section3Flow(t)
	res, _ := scheduleOf(t, f)
	if len(res.Cores) != 3 {
		t.Fatalf("scheduled %d cores, want 3", len(res.Cores))
	}
	for _, cs := range res.Cores {
		if cs.TAT <= 0 {
			t.Errorf("%s: TAT = %d", cs.Core, cs.TAT)
		}
		if cs.Period < 1 {
			t.Errorf("%s: period = %d", cs.Core, cs.Period)
		}
		if cs.HSCANVectors <= 0 {
			t.Errorf("%s: no HSCAN vectors", cs.Core)
		}
	}
	if res.TotalTAT() <= 0 {
		t.Error("zero total TAT")
	}
}

// The Section 3 model: TAT = HSCANvectors x period + tail. Verify the
// identity holds for every scheduled core.
func TestTATFormula(t *testing.T) {
	f := section3Flow(t)
	res, _ := scheduleOf(t, f)
	for _, cs := range res.Cores {
		want := cs.HSCANVectors*cs.Period + cs.Tail
		if cs.TAT != want {
			t.Errorf("%s: TAT = %d, want %d x %d + %d = %d", cs.Core, cs.TAT, cs.HSCANVectors, cs.Period, cs.Tail, want)
		}
	}
}

// Faster upstream core versions shrink the DISPLAY's justification period
// (the Section 3 narrative: CPU V1 -> V3 cuts 525x9+3 to 525x3+3).
func TestFasterVersionsShrinkDisplayPeriod(t *testing.T) {
	f := section3Flow(t)
	slow := map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0}
	f.SelectVersions(slow)
	resSlow, _ := scheduleOf(t, f)
	fast := map[string]int{}
	for _, c := range f.Chip.TestableCores() {
		fast[c.Name] = len(c.Versions) - 1
	}
	fast["DISPLAY"] = 0 // only the helpers change
	f.SelectVersions(fast)
	resFast, _ := scheduleOf(t, f)
	ps, pf := 0, 0
	for _, cs := range resSlow.Cores {
		if cs.Core == "DISPLAY" {
			ps = cs.Period
		}
	}
	for _, cs := range resFast.Cores {
		if cs.Core == "DISPLAY" {
			pf = cs.Period
		}
	}
	if pf >= ps {
		t.Errorf("fast helper versions should shrink the DISPLAY period: %d -> %d", ps, pf)
	}
	f.SelectVersions(map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0})
}

func TestSystemTestMuxesInserted(t *testing.T) {
	f := section3Flow(t)
	res, g := scheduleOf(t, f)
	if a := res.MuxArea(); a.Cells() == 0 {
		t.Error("no system-level test muxes inserted (PREPROCESSOR.Address needs one)")
	}
	// The CCG now contains TestMux edges.
	found := false
	for _, e := range g.Edges {
		if e.Kind == ccg.TestMux {
			found = true
		}
	}
	if !found {
		t.Error("no TestMux edges in the CCG")
	}
	// Specifically the PREPROCESSOR Address output (Figure 9).
	for _, cs := range res.Cores {
		if cs.Core != "PREPROCESSOR" {
			continue
		}
		for _, out := range cs.Outputs {
			if out.Port == "Address" && !out.AddedMux {
				t.Error("PREPROCESSOR.Address should need a system-level test mux")
			}
		}
	}
}

func TestObservationTailIncludesScanOut(t *testing.T) {
	f := section3Flow(t)
	res, _ := scheduleOf(t, f)
	for _, cs := range res.Cores {
		if cs.Core != "DISPLAY" {
			continue
		}
		c, _ := f.Chip.CoreByName("DISPLAY")
		wantTail := cs.ObserveLat + c.Scan.MaxDepth - 1
		if cs.Tail != wantTail {
			t.Errorf("DISPLAY tail = %d, want observe %d + depth-1 %d", cs.Tail, cs.ObserveLat, c.Scan.MaxDepth-1)
		}
	}
}

// Every schedule the scheduler produces must replay cleanly: causal step
// ordering, no overlapping use of shared transparency resources, and
// arrival bookkeeping — for both systems and several version selections.
func TestValidateSchedules(t *testing.T) {
	f := section3Flow(t)
	for _, sel := range []map[string]int{
		{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0},
		{"CPU": 1, "PREPROCESSOR": 0, "DISPLAY": 0},
		{"CPU": 2, "PREPROCESSOR": 2, "DISPLAY": 2},
	} {
		f.SelectVersions(sel)
		res, _ := scheduleOf(t, f)
		if err := sched.Validate(res); err != nil {
			t.Errorf("selection %v: %v", sel, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	f := section3Flow(t)
	f.SelectVersions(map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0})
	res, _ := scheduleOf(t, f)
	// Corrupt an arrival.
	for _, cs := range res.Cores {
		if len(cs.Inputs) > 0 && len(cs.Inputs[0].Path.Steps) > 0 {
			cs.Inputs[0].Arrival += 3
			break
		}
	}
	if err := sched.Validate(res); err == nil {
		t.Error("corrupted arrival not detected")
	}
}

func TestValidateCatchesResourceOverlap(t *testing.T) {
	f := section3Flow(t)
	f.SelectVersions(map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0})
	res, _ := scheduleOf(t, f)
	// Shift a step back in time so it overlaps the previous use of its
	// resource (and breaks causality).
	for _, cs := range res.Cores {
		for i := range cs.Inputs {
			steps := cs.Inputs[i].Path.Steps
			for j := range steps {
				if steps[j].Start > 0 && len(steps[j].Edge.Res) > 0 {
					steps[j].Start = 0
					steps[j].End = steps[j].Edge.Latency
					if err := sched.Validate(res); err == nil {
						t.Error("time-shifted step not detected")
					}
					return
				}
			}
		}
	}
	t.Skip("no shiftable step found")
}

func TestInterconnectSchedule(t *testing.T) {
	f := section3Flow(t)
	f.SelectVersions(map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0})
	g, err := ccg.Build(f.Chip)
	if err != nil {
		t.Fatal(err)
	}
	// Core tests add the system-level test muxes the interconnect plan
	// may also route through.
	if _, err := sched.Schedule(f.Chip, g); err != nil {
		t.Fatal(err)
	}
	ir, err := sched.ScheduleInterconnect(f.Chip, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Nets) == 0 {
		t.Fatal("no inter-core nets scheduled")
	}
	seen := map[string]bool{}
	for _, nt := range ir.Nets {
		seen[nt.Net.String()] = true
		// ceil(log2 w)+2 patterns: an 8-bit bus needs 5.
		if nt.Width == 8 && nt.Patterns != 5 {
			t.Errorf("%v: %d patterns for 8 bits, want 5", nt.Net, nt.Patterns)
		}
		if nt.TAT != nt.Patterns*nt.Period {
			t.Errorf("%v: TAT %d != %d*%d", nt.Net, nt.TAT, nt.Patterns, nt.Period)
		}
		if nt.Period < 1 {
			t.Errorf("%v: period %d", nt.Net, nt.Period)
		}
	}
	// The data bus PREPROCESSOR.DB -> CPU.Data is a testable net.
	if !seen["PREPROCESSOR.DB -> CPU.Data"] {
		t.Errorf("data bus not scheduled; nets: %v", seen)
	}
	if ir.TotalTAT <= 0 {
		t.Error("zero interconnect TAT")
	}
	// Memory-facing nets are excluded, not failed.
	for _, nt := range ir.Nets {
		if nt.Net.ToCore == "RAM" || nt.Net.FromCore == "RAM" {
			t.Errorf("memory net scheduled: %v", nt.Net)
		}
	}
}

func TestPipelinedTATBound(t *testing.T) {
	f := section3Flow(t)
	f.SelectVersions(map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0})
	res, _ := scheduleOf(t, f)
	pipe := sched.PipelinedTAT(res)
	for _, cs := range res.Cores {
		p, ok := pipe[cs.Core]
		if !ok {
			t.Fatalf("no pipelined bound for %s", cs.Core)
		}
		if p > cs.TAT {
			t.Errorf("%s: pipelined bound %d exceeds the conservative TAT %d", cs.Core, p, cs.TAT)
		}
		if p <= 0 {
			t.Errorf("%s: pipelined bound %d", cs.Core, p)
		}
	}
	// The DISPLAY's vectors cross two cores: pipelining would help it
	// strictly (its period exceeds any single edge latency).
	var disp *sched.CoreSchedule
	for _, cs := range res.Cores {
		if cs.Core == "DISPLAY" {
			disp = cs
		}
	}
	if disp != nil && pipe["DISPLAY"] >= disp.TAT {
		t.Errorf("pipelining should beat the conservative DISPLAY schedule: %d vs %d", pipe["DISPLAY"], disp.TAT)
	}
}

package ctrl_test

import (
	"testing"

	"repro/internal/ccg"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/rtlsim"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/systems"
)

func TestGenerateController(t *testing.T) {
	f, err := core.Prepare(systems.System1(), &core.Options{
		VectorOverride: map[string]int{"CPU": 10, "PREPROCESSOR": 10, "DISPLAY": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ccg.Build(f.Chip)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Schedule(f.Chip, g)
	if err != nil {
		t.Fatal(err)
	}
	c := ctrl.GenerateSelection(f.Chip, res, nil)
	// One state per core plus setup/done.
	if c.States != 5 {
		t.Errorf("states = %d, want 5", c.States)
	}
	if c.Area.Cells() == 0 {
		t.Error("controller has no area")
	}
	// One driver per control line: a clock gate per scheduled core (3)
	// and a transparency-mode select per core with a version (3).
	if n := c.Area.Count(cell.Buf); n != 6 {
		t.Errorf("control line drivers = %d, want 6 (3 clock gates + 3 mode selects)", n)
	}
}

func TestBuildRTLController(t *testing.T) {
	f, err := core.Prepare(systems.System1(), &core.Options{
		VectorOverride: map[string]int{"CPU": 10, "PREPROCESSOR": 10, "DISPLAY": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ccg.Build(f.Chip)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Schedule(f.Chip, g)
	if err != nil {
		t.Fatal(err)
	}
	c := ctrl.GenerateSelection(f.Chip, res, nil)
	rc, err := ctrl.BuildRTL(f.Chip, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One emitted control line per driver the sizing counts.
	if p, ok := rc.PortByName("Ctl"); !ok || p.Width != c.Area.Count(cell.Buf) {
		t.Errorf("Ctl port %+v (found %v), want width %d", p, ok, c.Area.Count(cell.Buf))
	}
	// The emitted controller synthesizes cleanly.
	sr, err := synth.Synthesize(rc)
	if err != nil {
		t.Fatalf("controller synthesis: %v", err)
	}
	if st := sr.Netlist.Stats(); st.FFs == 0 || st.Gates == 0 {
		t.Errorf("degenerate controller netlist: %+v", st)
	}
	// Drive the FSM: with TestMode=1, StepDone pulses walk the state from
	// idle through one state per core.
	sim, err := rtlsim.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetInput("TestMode", 1)
	want := uint64(0)
	for step := 0; step < c.States-1; step++ {
		sim.SetInput("StepDone", 1)
		sim.Step()
		want++
		got := sim.Reg("STATE")
		if got != want {
			t.Fatalf("after %d steps state = %d, want %d", step+1, got, want)
		}
		// Hold the state one cycle so CTL registers the decoded state.
		sim.SetInput("StepDone", 0)
		sim.Step()
		if int(want) >= 1 && int(want) <= len(f.Chip.TestableCores()) {
			ctlW, err := sim.Output("Ctl")
			if err != nil {
				t.Fatal(err)
			}
			if ctlW == 0 {
				t.Errorf("state %d: no control line asserted", want)
			}
		}
	}
	// With StepDone low the state holds.
	sim.SetInput("StepDone", 0)
	cur := sim.Reg("STATE")
	sim.Step()
	if sim.Reg("STATE") != cur {
		t.Error("state advanced without StepDone")
	}
}

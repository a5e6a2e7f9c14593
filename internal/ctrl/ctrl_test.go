package ctrl_test

import (
	"strings"
	"testing"

	"repro/internal/ccg"
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
	// One clock gate per scheduled core and one transparency-mode select
	// per core version in use.
	gates, modes := 0, 0
	for _, s := range c.Signals {
		if strings.HasPrefix(s.Name, "gate_clk_") {
			gates++
		}
		if strings.HasPrefix(s.Name, "tmode_") {
			modes++
		}
	}
	if gates != 3 {
		t.Errorf("clock gates = %d, want 3", gates)
	}
	if modes != 3 {
		t.Errorf("transparency mode selects = %d, want 3", modes)
	}
	// Deterministically ordered.
	for i := 1; i < len(c.Signals); i++ {
		if c.Signals[i].Name < c.Signals[i-1].Name {
			t.Error("signals not sorted")
		}
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
	rc, err := ctrl.BuildRTL(f.Chip, c)
	if err != nil {
		t.Fatal(err)
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

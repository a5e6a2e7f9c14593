package core

import (
	"strings"
	"testing"

	"repro/internal/ccg"
	"repro/internal/sched"
)

func buildGraph(t *testing.T, f *Flow) *ccg.Graph {
	t.Helper()
	g, err := ccg.Build(f.Chip)
	if err != nil {
		t.Fatalf("ccg.Build: %v", err)
	}
	return g
}

func TestForcedMuxUnknownTarget(t *testing.T) {
	f := prepare(t)
	g := buildGraph(t, f)
	if _, err := applyForcedMux(f.Chip, g, ForcedMux{Core: "CPU", Port: "NoSuchPort", Input: true}); err == nil {
		t.Error("forced mux on an unknown port should error")
	}
	if _, err := applyForcedMux(f.Chip, g, ForcedMux{Core: "NOCORE", Port: "Data", Input: true}); err == nil {
		t.Error("forced mux on an unknown core should error")
	}
}

func TestForcedMuxNoChipPins(t *testing.T) {
	f := prepare(t)
	g := buildGraph(t, f)
	// Same artifacts, but a chip view without PIs/POs: attaching a test
	// mux must fail loudly instead of silently skipping the wire.
	bare := *f.Chip
	bare.PIs, bare.POs = nil, nil
	f2 := &Flow{Chip: &bare, Cores: f.Cores}
	if _, err := applyForcedMux(f2.Chip, g, ForcedMux{Core: "CPU", Port: "Data", Input: true}); err == nil {
		t.Error("input mux with no chip PIs should error")
	} else if !strings.Contains(err.Error(), "no pins") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, err := applyForcedMux(f2.Chip, g, ForcedMux{Core: "CPU", Port: "AddrLo", Input: false}); err == nil {
		t.Error("output mux with no chip POs should error")
	}
}

func TestPickChipPinWidthCompatibility(t *testing.T) {
	f := prepare(t)
	g := buildGraph(t, f)
	// System 1 PIs: Video(1), NUM(8), Reset(1).
	pins := f.Chip.PIs
	wantIdx := func(t *testing.T, name string) int {
		t.Helper()
		idx, ok := g.NodeIndex(name)
		if !ok {
			t.Fatalf("pin %s not in CCG", name)
		}
		return idx
	}
	cases := []struct {
		width int
		want  string
		why   string
	}{
		{8, "NUM", "narrowest pin covering an 8-bit port"},
		{1, "Reset", "1-bit tie between Reset and Video breaks by name"},
		{16, "NUM", "nothing covers 16 bits, widest pin wins"},
	}
	for _, tc := range cases {
		got, err := sched.PickPin(g, pins, tc.width)
		if err != nil {
			t.Fatalf("width %d: %v", tc.width, err)
		}
		if want := wantIdx(t, tc.want); got != want {
			t.Errorf("width %d: picked node %d, want %s (%s)", tc.width, got, tc.want, tc.why)
		}
	}
	if _, err := sched.PickPin(g, nil, 1); err == nil {
		t.Error("empty pin list should error")
	}
}

func TestEvaluateWithForcedMux(t *testing.T) {
	f := prepare(t)
	base, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	f.ForcedMuxes = []ForcedMux{{Core: "CPU", Port: "Data", Input: true}}
	defer func() { f.ForcedMuxes = nil }()
	e, err := f.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate with forced mux: %v", err)
	}
	if e.MuxCells <= base.MuxCells {
		t.Errorf("forced mux added no area: %d vs baseline %d", e.MuxCells, base.MuxCells)
	}
	// And an invalid forced mux surfaces as an Evaluate error.
	f.ForcedMuxes = []ForcedMux{{Core: "CPU", Port: "Bogus", Input: true}}
	if _, err := f.Evaluate(); err == nil {
		t.Error("Evaluate should propagate the forced-mux error")
	}
}

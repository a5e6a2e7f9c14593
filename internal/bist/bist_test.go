package bist

import (
	"testing"

	"repro/internal/systems"
)

func TestMarchCMinusShape(t *testing.T) {
	m := MarchCMinus()
	if len(m) != 6 {
		t.Fatalf("march C- has %d elements, want 6", len(m))
	}
	ops := 0
	for _, e := range m {
		ops += len(e.Ops)
	}
	if ops != 10 {
		t.Errorf("march C- is %dN, want 10N", ops)
	}
	// First element initializes with writes only.
	if len(m[0].Ops) != 1 || m[0].Ops[0] != "w0" {
		t.Errorf("march C- must start with ⇕(w0), got %v", m[0].Ops)
	}
	// Directions: up, up, up, down, down, down.
	wantDirs := []bool{true, true, true, false, false, false}
	for i, e := range m {
		if e.Ascending != wantDirs[i] {
			t.Errorf("element %d direction = %v, want %v", i, e.Ascending, wantDirs[i])
		}
	}
}

func TestPlanMemoryRAM(t *testing.T) {
	ch := systems.System1()
	ram, _ := ch.CoreByName("RAM")
	p := PlanMemory(ram)
	if p.Words != 4096 {
		t.Errorf("RAM words = %d, want 4096 (12-bit address)", p.Words)
	}
	if p.Cycles != 10*4096 {
		t.Errorf("RAM BIST cycles = %d, want 40960 (march C-)", p.Cycles)
	}
	if p.Area.Cells() == 0 {
		t.Error("BIST controller has no area")
	}
}

func TestPlanMemoryROM(t *testing.T) {
	ch := systems.System1()
	rom, _ := ch.CoreByName("ROM")
	p := PlanMemory(rom)
	// ROM is read-only: 2N sweep instead of march C-.
	if p.Cycles != 2*4096 {
		t.Errorf("ROM BIST cycles = %d, want 8192", p.Cycles)
	}
}

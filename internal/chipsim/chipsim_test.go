package chipsim_test

import (
	"testing"
	"testing/quick"

	"repro/internal/chipsim"
	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/systems"
)

func prepared(t testing.TB) *core.Flow {
	t.Helper()
	f, err := core.Prepare(systems.System1(), &core.Options{
		VectorOverride: map[string]int{"CPU": 10, "PREPROCESSOR": 10, "DISPLAY": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The Section 3 mechanism, executed: a test value driven at chip input
// NUM travels through the PREPROCESSOR's NUM->DB transparency (five
// cycles in Version 1) and arrives at the DISPLAY's D input.
func TestVectorDeliveryToDisplayD(t *testing.T) {
	f := prepared(t)
	s, err := chipsim.New(f.Chip)
	if err != nil {
		t.Fatal(err)
	}
	prep, _ := f.Chip.CoreByName("PREPROCESSOR")
	ps, _ := s.Core("PREPROCESSOR")
	lat, err := chipsim.EngageJustification(ps, prep.Versions[0], "DB")
	if err != nil {
		t.Fatal(err)
	}
	if lat != 5 {
		t.Fatalf("PREPROCESSOR V1 NUM->DB latency = %d, want 5", lat)
	}
	const vector = 0xA7
	if err := s.SetPI("NUM", vector); err != nil {
		t.Fatal(err)
	}
	// Before enough cycles, the value has not arrived.
	for cyc := 0; cyc < lat; cyc++ {
		if got, _ := s.CoreInput("DISPLAY", "D"); got == vector && cyc < lat-1 {
			// Arriving early would also be a bug in the latency claim —
			// but only flag clearly-early cycles (the pipeline starts
			// zeroed so a zero vector would alias).
			t.Fatalf("vector arrived after only %d cycles (claimed %d)", cyc, lat)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.CoreInput("DISPLAY", "D")
	if err != nil {
		t.Fatal(err)
	}
	if got != vector {
		t.Fatalf("after %d cycles DISPLAY.D = %#x, want %#x", lat, got, vector)
	}
}

// Two-core delivery: NUM -> PREPROCESSOR (5 cycles) -> CPU's Version 2
// Data -> Address(7:0) shortcut through mux M (1 cycle) -> DISPLAY.ALo.
func TestVectorDeliveryThroughTwoCores(t *testing.T) {
	f := prepared(t)
	s, err := chipsim.New(f.Chip)
	if err != nil {
		t.Fatal(err)
	}
	prep, _ := f.Chip.CoreByName("PREPROCESSOR")
	cpu, _ := f.Chip.CoreByName("CPU")
	ps, _ := s.Core("PREPROCESSOR")
	cs, _ := s.Core("CPU")
	lat1, err := chipsim.EngageJustification(ps, prep.Versions[0], "DB")
	if err != nil {
		t.Fatal(err)
	}
	// CPU Version 2: the paper's mux-M shortcut, Data -> MAR offset.
	lat2, err := chipsim.EngageJustification(cs, cpu.Versions[1], "AddrLo")
	if err != nil {
		t.Fatal(err)
	}
	if lat2 != 1 {
		t.Fatalf("CPU V2 Data->AddrLo latency = %d, want 1", lat2)
	}
	const vector = 0x5C
	s.SetPI("NUM", vector)
	total := lat1 + lat2
	for cyc := 0; cyc < total; cyc++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.CoreInput("DISPLAY", "ALo")
	if err != nil {
		t.Fatal(err)
	}
	if got != vector {
		t.Fatalf("after %d cycles DISPLAY.ALo = %#x, want %#x", total, got, vector)
	}
}

// Property: delivery works for arbitrary vector values (lossless
// transparency, the paper's defining requirement).
func TestDeliveryLossless(t *testing.T) {
	f := prepared(t)
	prep, _ := f.Chip.CoreByName("PREPROCESSOR")
	cpu, _ := f.Chip.CoreByName("CPU")
	check := func(v uint8) bool {
		s, err := chipsim.New(f.Chip)
		if err != nil {
			return false
		}
		ps, _ := s.Core("PREPROCESSOR")
		cs, _ := s.Core("CPU")
		l1, err := chipsim.EngageJustification(ps, prep.Versions[0], "DB")
		if err != nil {
			return false
		}
		l2, err := chipsim.EngageJustification(cs, cpu.Versions[1], "AddrLo")
		if err != nil {
			return false
		}
		s.SetPI("NUM", uint64(v))
		for cyc := 0; cyc < l1+l2; cyc++ {
			if err := s.Step(); err != nil {
				return false
			}
		}
		got, err := s.CoreInput("DISPLAY", "ALo")
		return err == nil && got == uint64(v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// V1's AddrLo justification rides the HSCAN scan muxes, which the bare
// RTL does not contain: engaging it must fail loudly rather than silently
// simulate the wrong hardware.
func TestEngageRejectsScanMuxPaths(t *testing.T) {
	f := prepared(t)
	cpu, _ := f.Chip.CoreByName("CPU")
	s, _ := chipsim.New(f.Chip)
	cs, _ := s.Core("CPU")
	if _, err := chipsim.EngageJustification(cs, cpu.Versions[0], "AddrLo"); err == nil {
		t.Error("V1 scan-mux path engaged on bare RTL")
	}
}

func TestChipOutputReadsDisplayPorts(t *testing.T) {
	f := prepared(t)
	s, _ := chipsim.New(f.Chip)
	if _, err := s.ChipOutput("PO-PORT1"); err != nil {
		t.Fatalf("PO read failed: %v", err)
	}
	if _, err := s.ChipOutput("NOPE"); err == nil {
		t.Error("unknown PO accepted")
	}
}

// TestEngagePropagationWrapper drives EngagePath over every propagation
// path of every core and version of System 1: each path either engages
// or is rejected because it rides DFT hardware the bare RTL does not
// contain; an unknown output port always errors.
func TestEngagePropagationWrapper(t *testing.T) {
	f := prepared(t)
	engaged := 0
	for _, c := range f.Chip.TestableCores() {
		for _, v := range c.Versions {
			for _, in := range c.RTL.Inputs() {
				p, ok := v.Prop[in.Name]
				if !ok {
					continue
				}
				s, err := chipsim.New(f.Chip)
				if err != nil {
					t.Fatal(err)
				}
				cs, _ := s.Core(c.Name)
				if chipsim.EngagePath(cs, v, p) == nil {
					engaged++
				}
			}
		}
	}
	if engaged == 0 {
		t.Fatal("no propagation path engaged on any core")
	}
	s, _ := chipsim.New(f.Chip)
	cpu, _ := f.Chip.CoreByName("CPU")
	cs, _ := s.Core("CPU")
	if _, err := chipsim.EngageJustification(cs, cpu.Versions[0], "NOPE"); err == nil {
		t.Error("unknown output port accepted")
	}
}

func TestSimAccessorErrors(t *testing.T) {
	s, err := chipsim.New(systems.System1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPI("NOPE", 1); err == nil {
		t.Fatal("unknown PI accepted")
	}
	if _, err := s.CoreInput("CPU", "NOPE"); err == nil {
		t.Fatal("undriven core input read without error")
	}
	if _, err := s.ChipOutput("NOPE"); err == nil {
		t.Fatal("unknown PO read without error")
	}
	if _, ok := s.Core("GHOST"); ok {
		t.Fatal("unknown core reported present")
	}
	bad := &soc.Chip{Nets: []soc.Net{{FromPort: "GHOST", ToPort: "GHOST"}}}
	if _, err := chipsim.New(bad); err == nil {
		t.Fatal("invalid chip accepted")
	}
}

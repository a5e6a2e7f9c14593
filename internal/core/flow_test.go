package core

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/sched"
	"repro/internal/systems"
)

// prepared caches the (expensive) flow over System 1 for this test binary.
var preparedS1 *Flow

func prepare(t testing.TB) *Flow {
	t.Helper()
	if preparedS1 != nil {
		return preparedS1
	}
	f, err := Prepare(systems.System1(), &Options{ATPG: &atpg.Options{BacktrackLimit: 30}})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	preparedS1 = f
	return f
}

func TestPrepareSystem1(t *testing.T) {
	f := prepare(t)
	for _, name := range []string{"CPU", "PREPROCESSOR", "DISPLAY"} {
		c, ok := f.Chip.CoreByName(name)
		if !ok {
			t.Fatalf("missing core %s", name)
		}
		if c.Scan == nil {
			t.Errorf("%s: no HSCAN result", name)
		}
		if len(c.Versions) < 2 {
			t.Errorf("%s: version ladder has %d entries, want >= 2", name, len(c.Versions))
		}
		if c.Vectors == 0 {
			t.Errorf("%s: no test vectors generated", name)
		}
		art := f.Cores[name]
		if art.ATPG.Stats.TestEfficiency() < 85 {
			t.Errorf("%s: test efficiency %.1f%% too low (%+v)", name, art.ATPG.Stats.TestEfficiency(), art.ATPG.Stats)
		}
	}
	// Memory cores prepared with BIST plans, no versions.
	ram, _ := f.Chip.CoreByName("RAM")
	if len(ram.Versions) != 0 {
		t.Error("RAM should not have transparency versions")
	}
	if f.Cores["RAM"].BISTPlan == nil {
		t.Error("RAM missing BIST plan")
	}
}

func TestEvaluateSystem1(t *testing.T) {
	f := prepare(t)
	e, err := f.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if e.TAT <= 0 {
		t.Fatalf("TAT = %d", e.TAT)
	}
	if len(e.Sched.Cores) != 3 {
		t.Fatalf("scheduled %d cores, want 3", len(e.Sched.Cores))
	}
	// The PREPROCESSOR's Address output is unobservable through other
	// cores (it feeds only the RAM): a system-level test mux must appear,
	// as in Figure 9.
	if e.MuxCells == 0 {
		t.Error("expected system-level test muxes (PREPROCESSOR Address, CPU memory pins)")
	}
	if e.CtrlCells == 0 {
		t.Error("expected a test controller")
	}
	// BIST runs concurrently and covers the 4KB memory space.
	if e.BISTCycles < 2*4096 {
		t.Errorf("BIST cycles = %d, want >= 8192 (4K words)", e.BISTCycles)
	}
}

func TestVersionSelectionChangesTAT(t *testing.T) {
	f := prepare(t)
	// All minimum-area versions.
	sel := map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0}
	f.SelectVersions(sel)
	eMin, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// All minimum-latency versions.
	for _, c := range f.Chip.TestableCores() {
		sel[c.Name] = len(c.Versions) - 1
	}
	f.SelectVersions(sel)
	eFast, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if eFast.TAT >= eMin.TAT {
		t.Errorf("min-latency TAT %d should beat min-area TAT %d", eFast.TAT, eMin.TAT)
	}
	if eFast.TransCells <= eMin.TransCells {
		t.Errorf("min-latency transparency area %d should exceed min-area %d", eFast.TransCells, eMin.TransCells)
	}
	// Restore.
	f.SelectVersions(map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0})
}

func TestDisplayJustifiedThroughTwoCores(t *testing.T) {
	// The Section 3 scenario: the DISPLAY's address inputs are fed from
	// NUM through the PREPROCESSOR and then the CPU.
	f := prepare(t)
	f.SelectVersions(map[string]int{"CPU": 0, "PREPROCESSOR": 0, "DISPLAY": 0})
	e, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	var disp *struct {
		period int
		tat    int
	}
	for _, cs := range e.Sched.Cores {
		if cs.Core == "DISPLAY" {
			disp = &struct {
				period int
				tat    int
			}{cs.Period, cs.TAT}
			// ALo must arrive later than D: it crosses the CPU too.
			var aLo, d int
			for _, in := range cs.Inputs {
				switch in.Port {
				case "ALo":
					aLo = in.Arrival
				case "D":
					d = in.Arrival
				}
			}
			if aLo <= d {
				t.Errorf("ALo arrival %d should exceed D arrival %d (extra CPU hop)", aLo, d)
			}
		}
	}
	if disp == nil {
		t.Fatal("DISPLAY not scheduled")
	}
	if disp.period < 2 {
		t.Errorf("DISPLAY period = %d, want >= 2 (paths through two cores)", disp.period)
	}
}

func TestChipNetlistBuilds(t *testing.T) {
	f := prepare(t)
	cn, err := BuildChipNetlist(f, false)
	if err != nil {
		t.Fatalf("BuildChipNetlist: %v", err)
	}
	st := cn.Netlist.Stats()
	if st.POs == 0 {
		t.Error("chip netlist has no POs")
	}
	if st.FFs < 150 {
		t.Errorf("chip netlist FFs = %d, want the full system state", st.FFs)
	}
	if cn.ScanEnable != -1 {
		t.Error("scan enable present without scan mode")
	}
	// Scan-mode build adds the scan circuitry.
	cns, err := BuildChipNetlist(f, true)
	if err != nil {
		t.Fatalf("BuildChipNetlist(scan): %v", err)
	}
	if cns.ScanEnable < 0 {
		t.Error("scan enable missing in scan mode")
	}
	if len(cns.Netlist.Gates) <= len(cn.Netlist.Gates) {
		t.Error("scan-mode netlist should be larger")
	}
}

func TestAggregateStats(t *testing.T) {
	f := prepare(t)
	s := f.AggregateTestStats()
	if s.Faults == 0 || s.Detected == 0 {
		t.Fatalf("empty aggregate stats %+v", s)
	}
	if s.FaultCoverage() < 80 {
		t.Errorf("aggregate coverage %.1f%% suspiciously low", s.FaultCoverage())
	}
	if f.OrigCells() < 6000 {
		t.Errorf("orig cells = %d, want ~8000", f.OrigCells())
	}
	if f.HSCANGrids() == 0 {
		t.Error("no HSCAN area")
	}
}

func TestRecovered(t *testing.T) {
	fails := func(cores ...string) *sched.Degradation {
		d := &sched.Degradation{}
		for _, c := range cores {
			d.Failures = append(d.Failures, sched.PortFailure{Core: c})
		}
		return d
	}
	got := recovered(fails("a", "b", "c"), fails("b"))
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("recovered = %v, want [a c]", got)
	}
	if got := recovered(fails(), fails("x")); len(got) != 0 {
		t.Fatalf("recovered(none) = %v", got)
	}
}

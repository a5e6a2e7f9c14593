package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/resil"
	"repro/internal/systems"
)

// TestBISTCyclesPlannedOncePerFlow checks the memory BIST time every
// evaluation reports: the longest single BIST run, since the engines run
// in parallel; zero on a chip without memories; and on a fault-injected
// fork the value of its base flow.
func TestBISTCyclesPlannedOncePerFlow(t *testing.T) {
	s1 := systems.System1()
	f, err := core.Prepare(s1, flowcmd.GenVectorOverride(s1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// The RAM's march C- (10 operations x 4096 words) dominates the
	// ROM's 2 x 4096 read sweep.
	if e.BISTCycles != 10*4096 {
		t.Errorf("System 1 BIST cycles = %d, want 40960", e.BISTCycles)
	}
	fch, err := resil.Inject(s1, resil.CutEdge{FromPort: "NUM", ToCore: "PREPROCESSOR", ToPort: "NUM"})
	if err != nil {
		t.Fatal(err)
	}
	de, err := f.Fork(fch).EvaluateDegradedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if de.BISTCycles != e.BISTCycles {
		t.Errorf("fault-injected fork BIST cycles = %d, base flow %d", de.BISTCycles, e.BISTCycles)
	}

	s2 := systems.System2()
	f2, err := core.Prepare(s2, flowcmd.GenVectorOverride(s2))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := f2.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if e2.BISTCycles != 0 {
		t.Errorf("System 2 BIST cycles = %d, want 0 (no memories)", e2.BISTCycles)
	}
}

package hier_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/hscan"
	"repro/internal/rtlsim"
	"repro/internal/systems"
	"repro/internal/trans"
)

func TestFlattenSystem2(t *testing.T) {
	f, err := core.Prepare(systems.System2(), &core.Options{
		VectorOverride: map[string]int{"GRAPHICS": 20, "GCD": 20, "X25": 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, paths, err := hier.Flatten(f, "SYS2CORE")
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Validate(); err != nil {
		t.Fatalf("meta-core invalid: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("no pin paths")
	}
	// Every observable PO has a pipeline whose depth equals the chip's
	// pin-to-pin test latency.
	for _, p := range paths {
		if p.Latency < 1 {
			t.Errorf("path %s->%s latency %d", p.PI, p.PO, p.Latency)
		}
	}
	// The skeleton itself is transparent: the standard core-level flow
	// runs on it and Version 1 latencies equal the recorded pin paths.
	scan, err := hscan.Insert(meta)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trans.Build(meta, scan)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := trans.Versions(g)
	if err != nil {
		t.Fatal(err)
	}
	// The functional skeleton reproduces the chip's pin latencies exactly:
	// each PO is fed by a pipeline of Latency registers.
	wantFFs := 0
	for _, p := range paths {
		wantFFs += p.Latency * p.Width
	}
	if got := meta.FFCount(); got != wantFFs {
		t.Errorf("skeleton FFs = %d, want %d (sum of latency x width)", got, wantFFs)
	}
	// Transparency on the skeleton can only be as slow as the pipelines
	// (created muxes for unused pins may shortcut below them).
	v1 := vs[0]
	for _, p := range paths {
		if got := v1.JustLatency(p.PO); got > p.Latency {
			t.Errorf("meta just(%s) = %d, exceeds the chip's pin latency %d", p.PO, got, p.Latency)
		}
	}
	// And the skeleton physically moves data (RTL-level verification).
	if _, _, err := rtlsim.VerifyAllEdges(meta, g, 0xcafe); err != nil {
		t.Errorf("meta edge verification: %v", err)
	}
}

// The flagship hierarchical scenario: System 2 flattened and embedded as
// a core next to a fresh GCD; the whole SOCET flow runs on the two-level
// system without ever looking inside the flattened chip.
func TestHierarchicalFlow(t *testing.T) {
	f, err := core.Prepare(systems.System2(), &core.Options{
		VectorOverride: map[string]int{"GRAPHICS": 20, "GCD": 20, "X25": 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := hier.Flatten(f, "SYS2CORE")
	if err != nil {
		t.Fatal(err)
	}
	super := hier.Embed("supersoc", meta, systems.GCD())
	if err := super.Validate(); err != nil {
		t.Fatalf("super-chip invalid: %v", err)
	}
	sf, err := core.Prepare(super, &core.Options{
		VectorOverride: map[string]int{meta.Name: 40, "GCD": 25},
	})
	if err != nil {
		t.Fatalf("hierarchical prepare: %v", err)
	}
	e, err := sf.Evaluate()
	if err != nil {
		t.Fatalf("hierarchical evaluate: %v", err)
	}
	if e.TAT <= 0 {
		t.Fatal("no hierarchical TAT")
	}
	// The embedded GCD must be reachable through the flattened System 2's
	// transparency (or explicit muxes) — its schedule exists either way.
	tat := map[string]int{}
	for _, cs := range e.Sched.Cores {
		tat[cs.Core] = cs.TAT
	}
	if got := tat["GCD"]; got <= 0 {
		t.Errorf("GCD TAT = %d", got)
	}
	if got := tat[meta.Name]; got <= 0 {
		t.Errorf("meta-core TAT = %d", got)
	}
	// GCD's Xin is fed by the meta-core: at least one of its inputs should
	// be justified *through* the flattened chip (arrival > 1).
	through := false
	for _, cs := range e.Sched.Cores {
		if cs.Core != "GCD" {
			continue
		}
		for _, in := range cs.Inputs {
			if !in.AddedMux && in.Arrival > 1 {
				through = true
			}
		}
	}
	if !through {
		t.Log("note: all GCD inputs reached directly (topology-dependent); flow still hierarchical")
	}
}

package sched_test

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ccg"
	"repro/internal/sched"
	"repro/internal/soc"
)

// midCoreFailure derives from System 1 a chip on which CPU inserts a test
// mux and then fails on a later port. The PI net to CPU.Reset is cut, so
// CPU.Reset needs an input mux. A 1-bit chip output that the graph lacks
// is the pin PickPin picks for CPU's first 1-bit output mux (Read), so
// that insertion fails. It returns the chip without and with that
// output: the graphs are built from the first, the scheduler runs on the
// second.
func midCoreFailure(t *testing.T) (built, ghosted *soc.Chip) {
	t.Helper()
	ch := section3Flow(t).Chip
	built = &soc.Chip{Name: ch.Name, Cores: ch.Cores, PIs: ch.PIs, POs: ch.POs}
	for _, n := range ch.Nets {
		if n.ToCore != "CPU" || n.ToPort != "Reset" {
			built.Nets = append(built.Nets, n)
		}
	}
	if len(built.Nets) != len(ch.Nets)-1 {
		t.Fatal("System 1 has no single net into CPU.Reset")
	}
	ghosted = &soc.Chip{Name: ch.Name, Cores: ch.Cores, PIs: ch.PIs, Nets: built.Nets,
		POs: append(slices.Clone(ch.POs), soc.Pin{Name: "!ghost", Width: 1})}
	return built, ghosted
}

func buildGraph(t *testing.T, ch *soc.Chip) *ccg.Graph {
	t.Helper()
	g, err := ccg.Build(ch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withDisabled returns ch with the named core disabled; the other cores
// are shared.
func withDisabled(ch *soc.Chip, name string) *soc.Chip {
	nc := *ch
	nc.Cores = slices.Clone(ch.Cores)
	for i, c := range nc.Cores {
		if c.Name == name {
			dc := *c
			dc.Disabled = "switched off by the test"
			nc.Cores[i] = &dc
		}
	}
	return &nc
}

func muxCount(res *sched.Result) int {
	n := 0
	for _, cs := range res.Cores {
		n += len(cs.Muxes)
	}
	return n
}

// A core that fails after inserting a test mux leaves the graph as it
// found it, and the cores after it schedule as if it were disabled.
func TestPartialRollsBackFailingCore(t *testing.T) {
	built, ghosted := midCoreFailure(t)

	// The premise: scheduled alone, CPU inserts a mux, then fails.
	g := buildGraph(t, built)
	before := g.EdgeCount()
	cpu, _ := ghosted.CoreByName("CPU")
	if _, err := sched.ScheduleOne(ghosted, g, ccg.NewFinder(), cpu, false); err == nil ||
		!strings.Contains(err.Error(), "!ghost missing from the CCG") {
		t.Fatalf("CPU should fail on the missing pin, got %v", err)
	}
	if g.EdgeCount() == before {
		t.Fatal("CPU inserted no test mux before failing; the test proves nothing")
	}

	g = buildGraph(t, built)
	before = g.EdgeCount()
	res, deg := sched.BuildPartial(ghosted, g, false, nil)
	if !deg.Degraded() || deg.Failures[0].Core != "CPU" {
		t.Fatalf("failures %+v, want CPU first", deg.Failures)
	}
	if got, want := g.EdgeCount(), before+muxCount(res); got != want {
		t.Fatalf("graph has %d edges, want %d: the failing core's mux was not rolled back", got, want)
	}

	// Without CPU's Read mux PREPROCESSOR.Eoc needs one too, and fails the
	// same way in both runs; DISPLAY is scheduled.
	gd := buildGraph(t, built)
	want, wdeg := sched.BuildPartial(withDisabled(ghosted, "CPU"), gd, false, nil)
	if len(res.Cores) == 0 || !reflect.DeepEqual(res.Cores, want.Cores) {
		t.Fatal("the cores after the failing one schedule differently than with it disabled")
	}
	reasons := func(d *sched.Degradation) (out []string) {
		for _, pf := range d.Failures[1:] {
			out = append(out, pf.Core+": "+pf.Reason)
		}
		return out
	}
	if got, want := reasons(deg), reasons(wdeg); !slices.Equal(got, want) {
		t.Fatalf("later failures %q, with CPU disabled %q", got, want)
	}
	if g.EdgeCount() != gd.EdgeCount() {
		t.Fatalf("final graphs differ: %d vs %d edges", g.EdgeCount(), gd.EdgeCount())
	}
}

// A kept schedule stands in for its core: whichever cores are kept, the
// result holds the kept schedules themselves, the others schedule as in
// a full run, and the replayed test muxes leave the graph edge for edge
// as the full run left it.
func TestPartialKeepReplaysMuxes(t *testing.T) {
	f := section3Flow(t)
	full, g := scheduleOf(t, f)
	if muxCount(full) == 0 {
		t.Fatal("System 1 inserts no test mux; the test proves nothing")
	}
	n := len(full.Cores)
	for mask := 0; mask < 1<<n; mask++ {
		keep := make([]*sched.CoreSchedule, n)
		for i := range keep {
			if mask&(1<<i) != 0 {
				keep[i] = full.Cores[i]
			}
		}
		kg := buildGraph(t, f.Chip)
		res, deg := sched.BuildPartial(f.Chip, kg, false, keep)
		if deg.Degraded() {
			t.Fatalf("mask %b: failures %+v", mask, deg.Failures)
		}
		if len(res.Cores) != n {
			t.Fatalf("mask %b: %d cores, want %d", mask, len(res.Cores), n)
		}
		for i, cs := range res.Cores {
			if keep[i] != nil && cs != keep[i] {
				t.Errorf("mask %b: %s is not the kept schedule", mask, cs.Core)
			}
			if keep[i] == nil && !reflect.DeepEqual(cs, full.Cores[i]) {
				t.Errorf("mask %b: %s schedules differently than in the full run", mask, cs.Core)
			}
		}
		if len(kg.Edges) != len(g.Edges) {
			t.Fatalf("mask %b: %d edges, full run %d", mask, len(kg.Edges), len(g.Edges))
		}
		for j, e := range kg.Edges {
			w := g.Edges[j]
			if e.From != w.From || e.To != w.To || e.Latency != w.Latency || e.Kind != w.Kind {
				t.Fatalf("mask %b: edge %d is %+v, full run %+v", mask, j, *e, *w)
			}
		}
	}
}

// With fixed test muxes a port no path serves fails as MuxDenied, and no
// edge is added.
func TestPartialFixedDeniesMuxes(t *testing.T) {
	f := section3Flow(t)
	g := buildGraph(t, f.Chip)
	before := g.EdgeCount()
	res, deg := sched.BuildPartial(f.Chip, g, true, nil)
	if g.EdgeCount() != before || muxCount(res) != 0 {
		t.Fatalf("fixed run added %d edges", g.EdgeCount()-before)
	}
	if !deg.Degraded() {
		t.Fatal("System 1 needs test muxes, yet nothing failed")
	}
	for _, pf := range deg.Failures {
		var ue *sched.UnreachableError
		if !errors.As(pf.Err, &ue) || !ue.MuxDenied || ue.Core != pf.Core || ue.Port != pf.Port || ue.Input != pf.Input {
			t.Errorf("%s: failure %+v, want a matching MuxDenied UnreachableError", pf.Core, pf)
		}
	}
}

// Schedule fails with the first failing core's error and no result,
// whether that core is disabled or fails on a port.
func TestScheduleReturnsFirstFailure(t *testing.T) {
	built, ghosted := midCoreFailure(t)
	for _, tc := range []struct {
		name   string
		ch     *soc.Chip
		err    string
		reason string
	}{
		{"port", ghosted, "!ghost missing from the CCG", ""},
		{"disabled", withDisabled(withDisabled(built, "PREPROCESSOR"), "DISPLAY"),
			"sched: core PREPROCESSOR disabled: switched off by the test",
			"core disabled: switched off by the test"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, deg := sched.BuildPartial(tc.ch, buildGraph(t, built), false, nil)
			if !deg.Degraded() {
				t.Fatal("nothing failed")
			}
			first := deg.Failures[0]
			if !strings.Contains(first.Err.Error(), tc.err) {
				t.Fatalf("first failure %v, want %q", first.Err, tc.err)
			}
			if tc.reason != "" && first.Reason != tc.reason {
				t.Errorf("reason %q, want %q", first.Reason, tc.reason)
			}
			res, err := sched.Schedule(tc.ch, buildGraph(t, built))
			if res != nil || err == nil || err.Error() != first.Err.Error() {
				t.Fatalf("Schedule = %v, %v; want nil, %v", res, err, first.Err)
			}
		})
	}
}

package resil

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/systems"
)

// Prepared flows are cached per test binary: Prepare runs synthesis,
// HSCAN, the version ladder and ATPG for every core.
var flows = map[string]*core.Flow{}

func prepare(t testing.TB, name string, build func() *soc.Chip) *core.Flow {
	t.Helper()
	if f, ok := flows[name]; ok {
		return f
	}
	f, err := core.Prepare(build(), &core.Options{ATPG: &atpg.Options{BacktrackLimit: 30}})
	if err != nil {
		t.Fatalf("Prepare(%s): %v", name, err)
	}
	flows[name] = f
	return f
}

func system1(t testing.TB) *core.Flow { return prepare(t, "system1", systems.System1) }
func system2(t testing.TB) *core.Flow { return prepare(t, "system2", systems.System2) }

// Zero faults: EvaluateDegradedCtx must be bit-identical to Evaluate — the
// degraded path is the same flow, not a parallel approximation.
func TestZeroFaultBitIdentical(t *testing.T) {
	for name, f := range map[string]*core.Flow{"system1": system1(t), "system2": system2(t)} {
		t.Run(name, func(t *testing.T) {
			want, err := f.Evaluate()
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			got, err := f.EvaluateDegradedCtx(context.Background())
			if err != nil {
				t.Fatalf("EvaluateDegradedCtx: %v", err)
			}
			if !reflect.DeepEqual(want, got.Evaluation) {
				t.Errorf("degraded evaluation differs from Evaluate:\n  Evaluate:            TAT=%d trans=%d mux=%d ctrl=%d\n  EvaluateDegradedCtx: TAT=%d trans=%d mux=%d ctrl=%d",
					want.TAT, want.TransCells, want.MuxCells, want.CtrlCells,
					got.TAT, got.TransCells, got.MuxCells, got.CtrlCells)
			}
			r := got.Report
			if r.Degraded() || r.Coverage != 1 || len(r.CutNets) != 0 || len(r.Fallbacks) != 0 {
				t.Errorf("zero-fault report not clean: %+v", r)
			}
		})
	}
}

// Cutting any single interconnect net must never error: every run yields a
// partial evaluation whose schedule validates and whose untestable cores
// (if any) are diagnosed with exactly the cut net.
func TestSingleEdgeCutCampaign(t *testing.T) {
	for name, f := range map[string]*core.Flow{"system1": system1(t), "system2": system2(t)} {
		t.Run(name, func(t *testing.T) {
			c := &Campaign{Flow: f, Runs: SingleEdgeCuts(f.Chip)}
			outs, err := c.Execute(context.Background())
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if len(outs) != len(f.Chip.Nets) {
				t.Fatalf("got %d outcomes, want %d", len(outs), len(f.Chip.Nets))
			}
			degraded := 0
			for _, o := range outs {
				cutName := o.Faults[0].(CutEdge).net().String()
				if o.Err != nil {
					t.Errorf("%s: flow error: %v", cutName, o.Err)
					continue
				}
				r := o.Eval.Report
				if err := sched.Validate(o.Eval.Sched); err != nil {
					t.Errorf("%s: partial schedule invalid: %v", cutName, err)
				}
				if len(r.CutNets) != 1 || r.CutNets[0] != cutName {
					t.Errorf("%s: report cut nets %v", cutName, r.CutNets)
				}
				if !r.Degraded() {
					if r.Coverage != 1 {
						t.Errorf("%s: not degraded but coverage %.3f", cutName, r.Coverage)
					}
					continue
				}
				degraded++
				if r.Coverage < 0 || r.Coverage >= 1 {
					t.Errorf("%s: degraded coverage %.3f out of [0,1)", cutName, r.Coverage)
				}
				for _, d := range r.Diags {
					if d.Testable {
						continue
					}
					if d.CutEdge != cutName {
						t.Errorf("%s: core %s diagnosed with cut edge %q, want %q (reason: %s)",
							cutName, d.Core, d.CutEdge, cutName, d.Reason)
					}
				}
			}
			if degraded == 0 {
				t.Error("no single-edge cut degraded the chip; campaign is vacuous")
			}
			t.Logf("%s: %d/%d cuts degrade the chip", name, degraded, len(outs))
		})
	}
}

// A lone missing net is blamed only for failures the cut can explain. An
// opaque CPU fails PREPROCESSOR.Eoc and DISPLAY.AHi on its own, and
// neither port's baseline path crosses the cut net, so next to that
// fault the cut names neither; alone, it is named for the port it breaks.
func TestSingleCutBlamedOnlyForNetFaults(t *testing.T) {
	f := system1(t)
	const net = "DISPLAY.PORT6 -> PO-PORT6"
	for _, tc := range []struct {
		spec string
		want map[string]string // untestable core -> cut edge
	}{
		{"cut:DISPLAY.PORT6->PO-PORT6", map[string]string{"DISPLAY": net}},
		{"opaque:CPU,cut:DISPLAY.PORT6->PO-PORT6", map[string]string{"PREPROCESSOR": "", "DISPLAY": ""}},
	} {
		faults, err := ParseFaults(f.Chip, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := Inject(f.Chip, faults...)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := f.Fork(ch).EvaluateDegradedCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		got := map[string]string{}
		for _, d := range dev.Report.Diags {
			if !d.Testable {
				got[d.Core] = d.CutEdge
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: untestable cores and cut edges %v, want %v", tc.spec, got, tc.want)
		}
	}
}

// Checkpoints written by older builds carry a "completed" key in every
// run record; decoding ignores it.
func TestRunRecordIgnoresCompletedKey(t *testing.T) {
	var rec RunRecord
	if err := json.Unmarshal([]byte(`{"index":3,"faults":"opaque(CPU)","completed":true,"tat":7}`), &rec); err != nil {
		t.Fatal(err)
	}
	if want := (RunRecord{Index: 3, Faults: "opaque(CPU)", TAT: 7}); !reflect.DeepEqual(rec, want) {
		t.Fatalf("decoded %+v, want %+v", rec, want)
	}
}

func TestDisableHSCAN(t *testing.T) {
	f := system1(t)
	ch, err := Inject(f.Chip, DisableHSCAN{Core: "CPU"})
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	ff := f.Fork(ch)
	if _, err := ff.Evaluate(); err == nil {
		t.Error("Evaluate on a chip with a disabled core should fail")
	}
	dev, err := ff.EvaluateDegradedCtx(context.Background())
	if err != nil {
		t.Fatalf("EvaluateDegradedCtx: %v", err)
	}
	r := dev.Report
	if got := r.Untestable(); len(got) != 1 || got[0] != "CPU" {
		t.Fatalf("untestable = %v, want [CPU]", got)
	}
	for _, d := range r.Diags {
		if d.Core == "CPU" && !strings.Contains(d.Reason, "disabled") {
			t.Errorf("CPU diagnosis reason %q does not mention disabled", d.Reason)
		}
	}
	if r.Coverage >= 1 || r.Coverage <= 0 {
		t.Errorf("coverage %.3f, want in (0,1)", r.Coverage)
	}
	if dev.TAT >= mustEval(t, f).TAT {
		t.Errorf("degraded TAT %d not below full TAT %d despite skipping CPU", dev.TAT, mustEval(t, f).TAT)
	}
}

func TestOpaqueAndSlowFaults(t *testing.T) {
	f := system1(t)
	base := mustEval(t, f)
	ch, err := Inject(f.Chip, Opaque{Core: "CPU"}, SlowTransparency{Core: "DISPLAY", Factor: 3})
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	dev, err := f.Fork(ch).EvaluateDegradedCtx(context.Background())
	if err != nil {
		t.Fatalf("EvaluateDegradedCtx: %v", err)
	}
	if err := sched.Validate(dev.Sched); err != nil {
		t.Fatalf("partial schedule invalid: %v", err)
	}
	// The base chip must be untouched by injection.
	if got := mustEval(t, f); got.TAT != base.TAT {
		t.Fatalf("base chip mutated by injection: TAT %d -> %d", base.TAT, got.TAT)
	}
	cpu, _ := f.Chip.CoreByName("CPU")
	if len(cpu.Versions) == 0 {
		t.Fatal("base CPU lost its versions")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	f := system1(t)
	a := RandomSets(f.Chip, 5, 2, 42)
	b := RandomSets(f.Chip, 5, 2, 42)
	if FaultSetString(flatten(a)) != FaultSetString(flatten(b)) {
		t.Errorf("same seed produced different fault sets:\n%v\n%v", a, b)
	}
	c := RandomSets(f.Chip, 5, 2, 43)
	if FaultSetString(flatten(a)) == FaultSetString(flatten(c)) {
		t.Error("different seeds produced identical fault sets")
	}
}

func TestCampaignCancellation(t *testing.T) {
	f := system1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := (&Campaign{Flow: f, Runs: SingleEdgeCuts(f.Chip)}).Execute(ctx)
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(outs) != 0 {
		t.Errorf("got %d outcomes after pre-cancelled context, want 0", len(outs))
	}
}

func TestParseFaults(t *testing.T) {
	f := system1(t)
	net := f.Chip.Nets[0]
	spec := "cut:" + strings.ReplaceAll(net.String(), " -> ", "->") +
		", opaque:CPU, slow:DISPLAY:3, noscan:PREPROCESSOR"
	fs, err := ParseFaults(f.Chip, spec)
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if len(fs) != 4 {
		t.Fatalf("got %d faults, want 4", len(fs))
	}
	if c, ok := fs[0].(CutEdge); !ok || c.net() != net {
		t.Errorf("fault 0 = %v, want cut of %s", fs[0], net)
	}
	for _, bad := range []string{
		"cut:NOPE->ALSO.NOPE", // unknown net
		"opaque:GHOST",        // unknown core
		"slow:CPU:1",          // factor below 2
		"teleport:CPU",        // unknown kind
		"cut",                 // missing argument
	} {
		if _, err := ParseFaults(f.Chip, bad); err == nil {
			t.Errorf("ParseFaults(%q) succeeded, want error", bad)
		}
	}
}

func flatten(sets [][]Fault) []Fault {
	var out []Fault
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

func mustEval(t testing.TB, f *core.Flow) *core.Evaluation {
	t.Helper()
	e, err := f.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return e
}

// TestSeededCampaign25 is the CI fault-injection smoke: 25 seeded
// single-fault draws from System 1's catalog must all complete with zero
// flow errors and a valid partial report whose schedule validates.
func TestSeededCampaign25(t *testing.T) {
	f := system1(t)
	c := &Campaign{Flow: f, Runs: RandomSets(f.Chip, 25, 1, 25)}
	outs, err := c.Execute(context.Background())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(outs) != 25 {
		t.Fatalf("got %d outcomes, want 25", len(outs))
	}
	for _, o := range outs {
		name := FaultSetString(o.Faults)
		if o.Err != nil {
			t.Errorf("%s: flow error: %v", name, o.Err)
			continue
		}
		r := o.Eval.Report
		if r == nil {
			t.Errorf("%s: no degradation report", name)
			continue
		}
		if err := sched.Validate(o.Eval.Sched); err != nil {
			t.Errorf("%s: partial schedule invalid: %v", name, err)
		}
		if r.Coverage < 0 || r.Coverage > 1 {
			t.Errorf("%s: coverage %.3f out of [0,1]", name, r.Coverage)
		}
		if r.Degraded() {
			if len(r.Untestable()) == 0 && r.Coverage == 1 {
				t.Errorf("%s: degraded report with full coverage and no untestable cores", name)
			}
		} else if len(r.Untestable()) != 0 || r.Coverage != 1 {
			t.Errorf("%s: clean report with untestable=%d coverage=%.3f",
				name, len(r.Untestable()), r.Coverage)
		}
	}
}

// TestCampaignReportMergeAndMissing: a report split across partial
// executions merges bit-identically to the full run's report, and a
// partial report merges into the full one as a no-op.
func TestCampaignReportMergeAndMissing(t *testing.T) {
	f := system1(t)
	const seed = 11
	c := &Campaign{Flow: f, Runs: RandomSets(f.Chip, 5, 2, seed), Seed: seed}
	outs, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full := c.Report(outs)
	if full.Total != 5 || len(full.Records) != 5 {
		t.Fatalf("full report malformed: total=%d records=%d", full.Total, len(full.Records))
	}
	if full.Chip != f.Chip.Name || full.Seed != seed {
		t.Fatalf("attribution lost: chip=%q seed=%d", full.Chip, full.Seed)
	}

	// Partial report: only sets 0 and 3 ran.
	part := c.Report([]Outcome{outs[0], outs[3]})

	// Any split of the outcomes merges back to the full report — order of
	// parts and of outcomes inside a part must not matter.
	splits := [][2][]Outcome{
		{{outs[0], outs[1]}, {outs[2], outs[3], outs[4]}},
		{{outs[4], outs[2]}, {outs[1], outs[3], outs[0]}},
		{{}, outs},
	}
	for i, s := range splits {
		got := MergeReports(c.Report(s[0]), c.Report(s[1]))
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("split %d: merged report differs:\n got %+v\nwant %+v", i, got, full)
		}
		if got.Format() != full.Format() {
			t.Fatalf("split %d: formatted output differs", i)
		}
	}

	// Duplicated records collapse; merging with the full report is a no-op.
	if got := MergeReports(full, part, full); !reflect.DeepEqual(got, full) {
		t.Fatalf("idempotent merge failed: %+v", got)
	}
}

// visit runs c.Visit over indices on workers goroutines and returns each
// outcome's record by index, failing the test if fn sees an index twice.
func visit(t *testing.T, c *Campaign, workers int, indices []int) map[int]RunRecord {
	t.Helper()
	var mu sync.Mutex
	got := map[int]RunRecord{}
	err := c.Visit(context.Background(), workers, indices, func(o Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := got[o.Index]; dup {
			t.Errorf("%d workers: fn saw fault set %d twice", workers, o.Index)
		}
		got[o.Index] = c.Record(o)
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCampaignIndicesRestrictExecution: Visit runs exactly the listed
// sets, with their global index attribution, and refuses an index
// outside Runs before running anything.
func TestCampaignIndicesRestrictExecution(t *testing.T) {
	f := system1(t)
	c := &Campaign{Flow: f, Runs: RandomSets(f.Chip, 4, 2, 3), Seed: 3}
	// The records must equal the same sets from an unrestricted run.
	all, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]RunRecord{3: c.Record(all[3]), 1: c.Record(all[1])}
	if got := visit(t, c, 1, []int{3, 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range [][]int{{3, 99}, {-1}} {
		ran := false
		err := c.Visit(context.Background(), 4, bad, func(Outcome) { ran = true })
		if err == nil || !strings.Contains(err.Error(), "outside the campaign's 4 sets") || ran {
			t.Fatalf("indices %v: ran %v, err %v; want nothing run and a refusal", bad, ran, err)
		}
	}
}

// TestCampaignVisitRunsEachIndexOnce: at any worker count, fn sees each
// listed run exactly once, with its index and the record Execute
// returns for it.
func TestCampaignVisitRunsEachIndexOnce(t *testing.T) {
	f := system1(t)
	c := &Campaign{Flow: f, Runs: RandomSets(f.Chip, 5, 1, 5)}
	outs, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]RunRecord{}
	for _, i := range []int{4, 2, 0, 1} {
		want[i] = c.Record(outs[i])
	}
	for _, w := range []int{1, 2, 4} {
		if got := visit(t, c, w, []int{4, 2, 0, 1}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: records differ:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

// TestCampaignVisitReturnsLowestPanic: runs whose fn panics at two
// entries come back as the earlier entry's error at 1 and at 4 workers,
// and the process survives.
func TestCampaignVisitReturnsLowestPanic(t *testing.T) {
	f := system1(t)
	c := &Campaign{Flow: f, Runs: RandomSets(f.Chip, 6, 1, 9)}
	for _, w := range []int{1, 4} {
		err := c.Visit(context.Background(), w, []int{0, 1, 2, 3, 4, 5}, func(o Outcome) {
			if o.Index == 1 || o.Index == 4 {
				panic(fmt.Sprintf("boom at %d", o.Index))
			}
		})
		if err == nil || !strings.Contains(err.Error(), "fault set 1 panicked: boom at 1") {
			t.Fatalf("%d workers: err %v; want fault set 1's panic", w, err)
		}
	}
}

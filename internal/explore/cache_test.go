package explore

// The explorer's only evaluation cache is a core.DeltaEvaluator. Its bases
// and selection keys mean something only against the flow it was built
// over, so handing the explorer an evaluator over any other flow is an
// error, never a silently wrong evaluation.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/socgen"
)

func TestForeignEvaluatorRejected(t *testing.T) {
	f := flow(t)
	ch, err := socgen.Generate(socgen.Params{Seed: 5, Cores: 6, Topology: socgen.Chain})
	if err != nil {
		t.Fatalf("socgen: %v", err)
	}
	vecs := map[string]int{}
	for i, c := range ch.Cores {
		vecs[c.Name] = 8 + i
	}
	other, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ctx := context.Background()
	o := Options{Cache: core.NewDeltaEvaluator(other)}
	before := f.CurrentSelection()
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted an evaluator bound to another flow", name)
		}
		for _, want := range []string{f.Chip.Name, other.Chip.Name, "one evaluator serves one prepared flow"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}
	_, err = EnumerateCtx(ctx, f, o)
	check("EnumerateCtx", err)
	_, err = ImproveCtx(ctx, f, MinimizeTAT, 1<<30, o)
	check("ImproveCtx", err)
	if got := f.CurrentSelection(); !reflect.DeepEqual(got, before) {
		t.Errorf("a rejected walk changed the selection: %v -> %v", before, got)
	}
	// A different flow object over the same chip is another flow too.
	_, err = EnumerateCtx(ctx, f, Options{Cache: core.NewDeltaEvaluator(f.Fork(f.Chip))})
	if err == nil {
		t.Error("EnumerateCtx accepted an evaluator bound to a fork of the explored flow")
	}
}

// An evaluator warmed by an enumeration serves the improvement walk: the
// walk takes the same steps to the same TAT and cells as a cold one.
func TestWarmEvaluatorWalkMatchesCold(t *testing.T) {
	f := flow(t)
	ctx := context.Background()
	e0, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	budget := e0.ChipDFTCells() + 200
	cold, err := ImproveCtx(ctx, f, MinimizeTAT, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}

	reset(f)
	ev := core.NewDeltaEvaluator(f)
	if _, err := EnumerateCtx(ctx, f, Options{Workers: 2, Cache: ev}); err != nil {
		t.Fatal(err)
	}
	warm, err := ImproveCtx(ctx, f, MinimizeTAT, budget, Options{Cache: ev})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Steps) == 0 {
		t.Fatal("the cold walk accepted no move; the comparison proves nothing")
	}
	if !reflect.DeepEqual(warm.Steps, cold.Steps) {
		t.Errorf("warm walk steps differ:\n warm %+v\n cold %+v", warm.Steps, cold.Steps)
	}
	if warm.Final.TAT != cold.Final.TAT || warm.Final.ChipDFTCells() != cold.Final.ChipDFTCells() {
		t.Errorf("warm walk ends at TAT %d / %d cells, cold at %d / %d",
			warm.Final.TAT, warm.Final.ChipDFTCells(), cold.Final.TAT, cold.Final.ChipDFTCells())
	}
	if !reflect.DeepEqual(warm.Selection, cold.Selection) {
		t.Errorf("warm walk selects %v, cold %v", warm.Selection, cold.Selection)
	}
}

// explore.cache_misses and explore.cache_hits count one per evaluation
// the explorer requests; perfbench reads the misses as its
// explore.evaluations. Pin what they read on System 1.
func TestEvaluationCounters(t *testing.T) {
	f := flow(t)
	ctx := context.Background()
	_, m := obs.Enable(0)
	defer obs.Disable()
	counts := func() (hits, misses int64) {
		return m.Counter("explore.cache_hits").Value(), m.Counter("explore.cache_misses").Value()
	}

	if _, err := ImproveCtx(ctx, f, MinimizeTAT, 1<<30, Options{}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := counts(); misses != 5 || hits != 0 {
		t.Errorf("System 1 MinimizeTAT walk: %d misses, %d hits; want 5 and 0", misses, hits)
	}

	reset(f)
	_, m = obs.Enable(0)
	const capped = 7
	pts, err := EnumerateCtx(ctx, f, Options{MaxPoints: capped, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := counts(); len(pts) != capped || misses != capped || hits != 0 {
		t.Errorf("capped enumeration: %d points, %d misses, %d hits; want %d, %d and 0",
			len(pts), misses, hits, capped, capped)
	}

	// Asking one evaluator for the same selection twice: the second
	// request is an exact base match.
	_, m = obs.Enable(0)
	ev := core.NewDeltaEvaluator(f)
	for i := 0; i < 2; i++ {
		if _, err := ev.EvaluateSelectionCtx(ctx, f.CurrentSelection()); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := counts(); misses != 1 || hits != 1 {
		t.Errorf("repeated request: %d misses, %d hits; want 1 and 1", misses, hits)
	}
}

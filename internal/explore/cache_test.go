package explore

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

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

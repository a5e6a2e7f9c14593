package core_test

// Differential tests of the incremental delta evaluator: across every
// socgen topology family, a delta evaluation after a single-core version
// flip must be bit-identical — every reported number and the canonical
// schedule signature — to a from-scratch EvaluateSelection. The tamper
// test then cripples the invalidation on purpose and requires the same
// equivalence check to catch the stale schedules, proving the check has
// teeth.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/proptest"
	"repro/internal/socgen"
)

func deltaFlow(t *testing.T, p socgen.Params) *core.Flow {
	t.Helper()
	ch, err := socgen.Generate(p)
	if err != nil {
		t.Fatalf("socgen: %v", err)
	}
	vecs := map[string]int{}
	for i, c := range ch.Cores {
		vecs[c.Name] = 7 + i%19
	}
	f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return f
}

func TestDeltaMatchesFullAcrossTopologies(t *testing.T) {
	for _, topo := range []socgen.Topology{socgen.Chain, socgen.Mesh, socgen.RandomDAG, socgen.Hub} {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			t.Parallel()
			f := deltaFlow(t, socgen.Params{Seed: 7, Cores: 10, Topology: topo})
			d := core.NewDeltaEvaluator(f)
			base := f.CurrentSelection()
			if _, err := d.Rebase(context.Background(), base); err != nil {
				t.Fatalf("rebase: %v", err)
			}
			flips := 0
			for _, c := range f.Chip.TestableCores() {
				for v := 0; v < len(c.Versions); v++ {
					if v == base[c.Name] {
						continue
					}
					sel := map[string]int{}
					for k, vv := range base {
						sel[k] = vv
					}
					sel[c.Name] = v
					de, err := d.EvaluateSelectionCtx(context.Background(), sel)
					if err != nil {
						t.Fatalf("delta evaluate %s=V%d: %v", c.Name, v+1, err)
					}
					fe, err := f.EvaluateSelection(sel)
					if err != nil {
						t.Fatalf("full evaluate %s=V%d: %v", c.Name, v+1, err)
					}
					if err := proptest.EqualEvaluations(de, fe); err != nil {
						t.Fatalf("flip %s=V%d: delta diverges from full: %v", c.Name, v+1, err)
					}
					flips++
				}
			}
			if flips == 0 {
				t.Fatal("no version flips exercised; generator produced single-version ladders only")
			}
			// The equivalence must hold because the delta path ran, not
			// because every flip quietly fell back to a full evaluation.
			if st := d.Stats(); st.Deltas == 0 {
				t.Fatalf("all %d flips fell back to full evaluation (%+v); the delta path was never exercised", flips, st)
			}
		})
	}
}

// TestDeltaWalk drives the evaluator the way the explorer does — each
// accepted candidate becomes the next base — rather than always deltaing
// off one pinned base.
func TestDeltaWalk(t *testing.T) {
	f := deltaFlow(t, socgen.Params{Seed: 13, Cores: 12, Topology: socgen.RandomDAG})
	d := core.NewDeltaEvaluator(f)
	sel := f.CurrentSelection()
	if _, err := d.Rebase(context.Background(), sel); err != nil {
		t.Fatalf("rebase: %v", err)
	}
	cores := f.Chip.TestableCores()
	for i := 0; i < 8; i++ {
		c := cores[(i*5)%len(cores)]
		if len(c.Versions) < 2 {
			continue
		}
		sel[c.Name] = (sel[c.Name] + 1) % len(c.Versions)
		de, err := d.EvaluateSelectionCtx(context.Background(), sel)
		if err != nil {
			t.Fatalf("step %d: delta: %v", i, err)
		}
		fe, err := f.EvaluateSelection(sel)
		if err != nil {
			t.Fatalf("step %d: full: %v", i, err)
		}
		if err := proptest.EqualEvaluations(de, fe); err != nil {
			t.Fatalf("step %d (%s): %v", i, c.Name, err)
		}
	}
	if st := d.Stats(); st.Deltas == 0 {
		t.Fatalf("explorer-style walk never took the delta path: %+v", st)
	}
}

// TestDeltaZeroDiffReturnsBase asserts a re-request of the base
// selection is a registry hit returning the identical evaluation.
func TestDeltaZeroDiffReturnsBase(t *testing.T) {
	f := deltaFlow(t, socgen.Params{Seed: 3, Cores: 6, Topology: socgen.Chain})
	d := core.NewDeltaEvaluator(f)
	base := f.CurrentSelection()
	e1, err := d.Rebase(context.Background(), base)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	e2, err := d.EvaluateSelectionCtx(context.Background(), base)
	if err != nil {
		t.Fatalf("re-evaluate: %v", err)
	}
	if e1 != e2 {
		t.Fatal("zero-diff evaluation did not return the cached base evaluation")
	}
}

// TestDeltaTamperDetected proves the equivalence check catches a
// stale-invalidation bug: with the invalidation BFS crippled, only the
// flipped core is recomputed and downstream cores keep stale schedules.
// On a chain topology a mid-chain version flip must change some other
// core's path timings, so EqualEvaluations has to report a mismatch for
// at least one flip. If the crippled evaluator still matches everywhere,
// the check could not distinguish correct from broken invalidation.
func TestDeltaTamperDetected(t *testing.T) {
	f := deltaFlow(t, socgen.Params{Seed: 7, Cores: 10, Topology: socgen.Chain})
	d := core.NewDeltaEvaluator(f)
	d.SetCrippleInvalidation(true)
	base := f.CurrentSelection()
	if _, err := d.Rebase(context.Background(), base); err != nil {
		t.Fatalf("rebase: %v", err)
	}
	d.AdoptCandidates = false // keep every flip deltaing off the stale base
	caught := false
	for _, c := range f.Chip.TestableCores() {
		if len(c.Versions) < 2 {
			continue
		}
		sel := map[string]int{}
		for k, v := range base {
			sel[k] = v
		}
		sel[c.Name] = (base[c.Name] + 1) % len(c.Versions)
		de, err := d.EvaluateSelectionCtx(context.Background(), sel)
		if err != nil {
			t.Fatalf("crippled delta evaluate (flip %s): %v", c.Name, err)
		}
		fe, err := f.EvaluateSelection(sel)
		if err != nil {
			t.Fatalf("full evaluate (flip %s): %v", c.Name, err)
		}
		if proptest.EqualEvaluations(de, fe) != nil {
			caught = true
			break
		}
	}
	if st := d.Stats(); st.Deltas == 0 {
		t.Fatalf("crippled evaluator never took the delta path (%+v); the tamper test proved nothing", st)
	}
	if !caught {
		t.Fatal("crippled invalidation went undetected: every flip still matched the full evaluation, so the equivalence check has no teeth on this chip")
	}
}

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
			if _, err := d.EvaluateSelectionCtx(context.Background(), base); err != nil {
				t.Fatalf("base: %v", err)
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
	if _, err := d.EvaluateSelectionCtx(context.Background(), sel); err != nil {
		t.Fatalf("base: %v", err)
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
	e1, err := d.EvaluateSelectionCtx(context.Background(), base)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	e2, err := d.EvaluateSelectionCtx(context.Background(), base)
	if err != nil {
		t.Fatalf("re-evaluate: %v", err)
	}
	if e1 != e2 {
		t.Fatal("zero-diff evaluation did not return the cached base evaluation")
	}
}

// TestDeltaRegistryMatchesForcedMuxes checks that the registry matches a
// base by its forced-mux list as well as its selection: the same
// selection under an added mux is computed afresh and equals a full
// evaluation under that mux, and removing the mux again finds the first
// base.
func TestDeltaRegistryMatchesForcedMuxes(t *testing.T) {
	f := deltaFlow(t, socgen.Params{Seed: 3, Cores: 6, Topology: socgen.Chain})
	d := core.NewDeltaEvaluator(f)
	ctx := context.Background()
	sel := f.CurrentSelection()
	e1, err := d.EvaluateSelectionCtx(ctx, sel)
	if err != nil {
		t.Fatal(err)
	}

	c := f.Chip.TestableCores()[0]
	f.ForcedMuxes = []core.ForcedMux{{Core: c.Name, Port: c.RTL.Inputs()[0].Name, Input: true}}
	muxed, err := d.EvaluateSelectionCtx(ctx, sel)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Hits != 0 || muxed == e1 {
		t.Fatalf("a base built without the forced mux served the request (%+v)", st)
	}
	fe, err := f.EvaluateSelection(sel)
	if err != nil {
		t.Fatal(err)
	}
	if err := proptest.EqualEvaluations(muxed, fe); err != nil {
		t.Fatalf("evaluation under the forced mux differs from a full one: %v", err)
	}

	f.ForcedMuxes = nil
	e3, err := d.EvaluateSelectionCtx(ctx, sel)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Hits != 1 || e3 != e1 {
		t.Fatalf("removing the mux again did not hit the first base (%+v)", st)
	}
}

// TestDeltaTamperDetected proves the equivalence check catches a
// stale-invalidation bug: with the invalidation rules crippled, only the
// flipped core is recomputed and downstream cores keep stale schedules.
// On a chain topology a mid-chain version flip must change some other
// core's path timings, so EqualEvaluations has to report a mismatch for
// at least one flip. If the crippled evaluator still matches everywhere,
// the check could not distinguish correct from broken invalidation.
func TestDeltaTamperDetected(t *testing.T) {
	f := deltaFlow(t, socgen.Params{Seed: 7, Cores: 10, Topology: socgen.Chain})
	f.SetCrippleInvalidation(true)
	d := core.NewDeltaEvaluator(f)
	base := f.CurrentSelection()
	if _, err := d.EvaluateSelectionCtx(context.Background(), base); err != nil {
		t.Fatalf("base: %v", err)
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
	st := d.Stats()
	if st.Deltas == 0 {
		t.Fatalf("crippled evaluator never took the delta path (%+v); the tamper test proved nothing", st)
	}
	if st.Rescheduled != st.Deltas {
		t.Fatalf("crippled deltas re-scheduled %d cores over %d deltas; want only the flipped core each (%+v)", st.Rescheduled, st.Deltas, st)
	}
	if !caught {
		t.Fatal("crippled invalidation went undetected: every flip still matched the full evaluation, so the equivalence check has no teeth on this chip")
	}
}

// TestDeltaBaseSurvivesAdoptedFlips flips 20 cores of a 32-core chip one
// at a time off one base, with adoption on, as the improvement
// walk's trials do. Each flip is adopted as a base, so past 16 flips the
// registry is full; the base that serves the flips must stay in it, and
// every flip must take the delta path and equal a full evaluation.
func TestDeltaBaseSurvivesAdoptedFlips(t *testing.T) {
	f := deltaFlow(t, socgen.Params{Seed: 5, Cores: 32, Topology: socgen.RandomDAG})
	d := core.NewDeltaEvaluator(f)
	base := f.CurrentSelection()
	if _, err := d.EvaluateSelectionCtx(context.Background(), base); err != nil {
		t.Fatalf("base: %v", err)
	}
	flips := 0
	for _, c := range f.Chip.TestableCores() {
		if flips == 20 {
			break
		}
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
			t.Fatalf("delta evaluate (flip %s): %v", c.Name, err)
		}
		fe, err := f.EvaluateSelection(sel)
		if err != nil {
			t.Fatalf("full evaluate (flip %s): %v", c.Name, err)
		}
		if err := proptest.EqualEvaluations(de, fe); err != nil {
			t.Fatalf("flip %s: delta diverges from full: %v", c.Name, err)
		}
		flips++
	}
	if flips != 20 {
		t.Fatalf("only %d flippable cores; want 20", flips)
	}
	// The one full evaluation is the base's own.
	if st := d.Stats(); st.Fulls != 1 || st.Deltas+st.Fallbacks != flips {
		t.Fatalf("the base did not serve all %d flips (%+v)", flips, st)
	}
}

// TestDeltaValidatesRescheduledCores corrupts the schedule of every core
// the delta path re-schedules and requires the delta evaluation to be
// refused: a delta validates the cores it computes, so the corruption
// surfaces as a fallback to a full evaluation, never as a result.
func TestDeltaValidatesRescheduledCores(t *testing.T) {
	f := deltaFlow(t, socgen.Params{Seed: 7, Cores: 10, Topology: socgen.Chain})
	d := core.NewDeltaEvaluator(f)
	base := f.CurrentSelection()
	if _, err := d.EvaluateSelectionCtx(context.Background(), base); err != nil {
		t.Fatalf("base: %v", err)
	}
	d.SetTamperRescheduled(true)
	sel := map[string]int{}
	for k, v := range base {
		sel[k] = v
	}
	for _, c := range f.Chip.TestableCores() {
		if len(c.Versions) >= 2 {
			sel[c.Name] = (base[c.Name] + 1) % len(c.Versions)
			break
		}
	}
	de, err := d.EvaluateSelectionCtx(context.Background(), sel)
	if err != nil {
		t.Fatalf("delta evaluate: %v", err)
	}
	if st := d.Stats(); st.Fallbacks != 1 || st.Deltas != 0 {
		t.Fatalf("a delta with corrupted re-scheduled cores was not refused (%+v)", st)
	}
	fe, err := f.EvaluateSelection(sel)
	if err != nil {
		t.Fatalf("full evaluate: %v", err)
	}
	if err := proptest.EqualEvaluations(de, fe); err != nil {
		t.Fatalf("the refused delta's result differs from a full evaluation: %v", err)
	}
}

// flipMatchesFull bases a delta evaluator on the chip's initial
// selection, flips one core to version index v, requires the result to
// equal a full evaluation and returns how the flip was served.
func flipMatchesFull(t *testing.T, p socgen.Params, name string, v int) core.DeltaStats {
	t.Helper()
	f := deltaFlow(t, p)
	d := core.NewDeltaEvaluator(f)
	base := f.CurrentSelection()
	if _, err := d.EvaluateSelectionCtx(context.Background(), base); err != nil {
		t.Fatalf("base: %v", err)
	}
	if c, ok := f.Chip.CoreByName(name); !ok || v >= len(c.Versions) || v == base[name] {
		t.Fatalf("chip has no version index %d of %s to flip to", v, name)
	}
	sel := map[string]int{}
	for k, vv := range base {
		sel[k] = vv
	}
	sel[name] = v
	de, err := d.EvaluateSelectionCtx(context.Background(), sel)
	if err != nil {
		t.Fatalf("delta evaluate: %v", err)
	}
	fe, err := f.EvaluateSelection(sel)
	if err != nil {
		t.Fatalf("full evaluate: %v", err)
	}
	if err := proptest.EqualEvaluations(de, fe); err != nil {
		t.Fatalf("flip %s=V%d: delta diverges from full: %v", name, v+1, err)
	}
	return d.Stats()
}

// The three tests below each pin a flip that one invalidation rule alone
// gets right: each fails if its rule is dropped or weakened and the
// others are kept (checked by mutating the rules one at a time). They
// run in well under a second, unlike the 48-core proptest sweep that
// otherwise is the first check to catch such a mutation.

// TestDeltaReschedulesPathsOverRemovedEdges pins rule R1: a core whose
// base path steps on the flipped core's old transparency edges must be
// re-scheduled even when no new edge reaches its ports early enough.
func TestDeltaReschedulesPathsOverRemovedEdges(t *testing.T) {
	if st := flipMatchesFull(t, socgen.Params{Seed: 4, Cores: 13}, "C12", 1); st.Deltas != 1 || st.Rescheduled < 2 {
		t.Fatalf("the flip did not take the delta path with another core re-scheduled (%+v)", st)
	}
}

// TestDeltaReschedulesOnTiedBound pins the <= of rules R2 and R3: a new
// path that only ties a port's base arrival can still change the
// predecessor the search keeps, so a bound equal to the base arrival
// must re-schedule the core.
func TestDeltaReschedulesOnTiedBound(t *testing.T) {
	if st := flipMatchesFull(t, socgen.Params{Seed: 11, Cores: 10}, "C01", 1); st.Deltas != 1 || st.Rescheduled < 2 {
		t.Fatalf("the flip did not take the delta path with another core re-scheduled (%+v)", st)
	}
}

// TestDeltaReschedulesMuxedPorts pins the muxed-port rule: a port whose
// base schedule had to insert a test mux arrives over the mux, so its
// bound may well exceed its arrival, yet a finite bound means the search
// before the mux may now find a path. Here it does: the re-scheduled
// core inserts no mux, so the delta is refused and the flip evaluated in
// full.
func TestDeltaReschedulesMuxedPorts(t *testing.T) {
	if st := flipMatchesFull(t, socgen.Params{Seed: 1, Cores: 16}, "C12", 1); st.Fallbacks != 1 {
		t.Fatalf("the re-scheduled core kept its base muxes; want the delta refused (%+v)", st)
	}
}

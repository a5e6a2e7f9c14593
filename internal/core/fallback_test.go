package core_test

// Differential test of the degraded fallback trials: every trial's
// baseline and chip passes, which flip the passes before them, must equal
// passes of the same selections scheduled from scratch. The corpus is the
// degraded digest's (internal/resil). A crippled invalidation must fail
// the same comparison.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/resil"
	"repro/internal/socgen"
)

// fallbackCampaigns prepares the digest corpus, socgen seeds 1-12 in three
// shapes, and runs each chip's campaign of 12 random two-fault sets with
// the trial hook installed. It stops early once stop reports true.
func fallbackCampaigns(t *testing.T, cripple bool, report func(core.TrialCheck), stop func() bool) (fallbacks, flipsAfter int) {
	t.Helper()
	shapes := []socgen.Params{
		{},
		{Cores: 10, PIBudget: 2, POBudget: 2},
		{Cores: 24, Topology: socgen.RandomDAG, PIBudget: 3, POBudget: 2},
	}
	for seed := 1; seed <= 12; seed++ {
		for _, shape := range shapes {
			if stop() {
				return fallbacks, flipsAfter
			}
			p := shape
			p.Seed = uint64(seed)
			ch, err := socgen.Generate(p)
			if err != nil {
				t.Fatalf("generate %+v: %v", p, err)
			}
			vecs := map[string]int{}
			for i, c := range ch.Cores {
				vecs[c.Name] = 5 + (7*i+seed)%28
			}
			f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
			if err != nil {
				t.Fatalf("prepare %s: %v", ch.Name, err)
			}
			f.SetCrippleInvalidation(cripple)
			f.CheckFallbackTrials(func(tc core.TrialCheck) {
				if tc.AfterFallback {
					flipsAfter++
				}
				report(tc)
			})
			c := &resil.Campaign{Flow: f, Runs: resil.RandomSets(ch, 12, 2, int64(seed)), Seed: int64(seed)}
			outs, err := c.Execute(context.Background())
			if err != nil {
				t.Fatalf("%s: campaign: %v", ch.Name, err)
			}
			for _, o := range outs {
				if o.Err != nil {
					t.Fatalf("%s run %d: %v", ch.Name, o.Index, o.Err)
				}
				fallbacks += len(o.Eval.Report.Fallbacks)
				// The evaluation names the versions its fallbacks chose;
				// a later fallback on the same core replaces an earlier.
				chose := map[string]int{}
				for _, fb := range o.Eval.Report.Fallbacks {
					chose[fb.Core] = fb.Version
				}
				for c, v := range chose {
					if got := o.Eval.Selection[c]; got != v {
						t.Fatalf("%s run %d: Selection[%s] = %d, the fallback chose %d", ch.Name, o.Index, c, got, v)
					}
				}
			}
		}
	}
	return fallbacks, flipsAfter
}

func TestDeltaFallbackTrialsMatchScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 432 degraded evaluations and schedules every trial twice more")
	}
	trials, reused := 0, 0
	fallbacks, flipsAfter := fallbackCampaigns(t, false, func(tc core.TrialCheck) {
		trials++
		reused += tc.Reused
		if tc.Err != nil {
			t.Fatalf("trial %d differs from a from-scratch pass: %v", trials, tc.Err)
		}
	}, func() bool { return false })
	t.Logf("%d trials kept %d core schedules; %d accepted fallbacks, %d trials flip one", trials, reused, fallbacks, flipsAfter)
	// The passes must match because flips kept schedules, including
	// flips of an accepted fallback's passes, not because nothing ran.
	if trials == 0 || reused == 0 || fallbacks == 0 || flipsAfter == 0 {
		t.Fatalf("corpus did not exercise the flip step: %d trials, %d kept schedules, %d fallbacks, %d flips of a fallback",
			trials, reused, fallbacks, flipsAfter)
	}
}

// TestDeltaFallbackTrialsTamperDetected cripples the invalidation of the
// trial flips, so every core but the flipped one keeps its schedule, and
// requires the comparison to catch a stale one.
func TestDeltaFallbackTrialsTamperDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs degraded evaluations until a stale schedule shows")
	}
	caught, trials := false, 0
	fallbackCampaigns(t, true, func(tc core.TrialCheck) {
		trials++
		caught = caught || tc.Err != nil
	}, func() bool { return caught })
	if !caught {
		t.Fatalf("crippled invalidation went undetected over %d trials: the trial comparison has no teeth", trials)
	}
	t.Logf("caught after %d trials", trials)
}

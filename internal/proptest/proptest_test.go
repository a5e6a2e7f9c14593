package proptest

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/socgen"
	"repro/internal/trans"
)

var (
	nFlag     = flag.Int("proptest.n", 50, "number of seeded chips to verify")
	seedFlag  = flag.Int64("proptest.seed", -1, "verify one specific seed instead of a sweep")
	coresFlag = flag.Int("proptest.cores", 0, "override generated core count (0 = seed default)")
	topoFlag  = flag.String("proptest.topo", "auto", "topology family (auto, chain, mesh, dag, hub)")
)

func paramsFromFlags(t *testing.T, seed uint64) socgen.Params {
	t.Helper()
	topo, err := socgen.ParseTopology(*topoFlag)
	if err != nil {
		t.Fatal(err)
	}
	return socgen.Params{Seed: seed, Cores: *coresFlag, Topology: topo}
}

// reproducer formats the command that replays one failing parameter set.
func reproducer(p socgen.Params) string {
	return fmt.Sprintf("go test ./internal/proptest -run TestGeneratedChips -proptest.seed=%d -proptest.cores=%d -proptest.topo=%s",
		p.Seed, p.Cores, p.Topology)
}

func checkSeed(t *testing.T, p socgen.Params, agg *Stats, mu *sync.Mutex) {
	t.Helper()
	st, err := Check(p)
	mu.Lock()
	agg.add(st)
	mu.Unlock()
	if err != nil {
		min := Shrink(p)
		t.Fatalf("seed %d failed: %v\nshrunk reproducer (cores=%d): %s",
			p.Seed, err, min.Cores, reproducer(min))
	}
}

// TestGeneratedChips verifies a sweep of seeded random SoCs: full flow,
// cycle-accurate differential replay of every scheduled path, and the
// metamorphic invariants. Failing seeds shrink to a minimal core count
// and print a one-line reproducer.
func TestGeneratedChips(t *testing.T) {
	var mu sync.Mutex
	agg := &Stats{}
	if *seedFlag >= 0 {
		checkSeed(t, paramsFromFlags(t, uint64(*seedFlag)), agg, &mu)
		t.Logf("seed %d: %d paths, %d replayed, %d virtual, %d fully simulated cores, %d points",
			*seedFlag, agg.Paths, agg.Replayed, agg.Virtual, agg.FullCores, agg.Points)
		return
	}
	t.Run("seeds", func(t *testing.T) {
		for i := 0; i < *nFlag; i++ {
			p := paramsFromFlags(t, uint64(i)+1)
			t.Run(fmt.Sprintf("seed=%d", p.Seed), func(t *testing.T) {
				t.Parallel()
				checkSeed(t, p, agg, &mu)
			})
		}
	})
	if t.Failed() {
		return
	}
	t.Logf("%d chips: %d paths, %d replayed, %d virtual, %d fully simulated cores, %d enumerated points",
		*nFlag, agg.Paths, agg.Replayed, agg.Virtual, agg.FullCores, agg.Points)
	if agg.Replayed == 0 {
		t.Fatalf("no scheduled path was replayable on chipsim across %d chips — the differential harness is vacuous", *nFlag)
	}
	if agg.FullCores == 0 {
		t.Errorf("no core had its full TAT recomputed from simulation across %d chips", *nFlag)
	}
}

// TestReplayDetectsLatencyLies tampers a prepared chip — every core's
// selected version claims one cycle less than its paths really take — and
// requires the differential replay to catch the discrepancy. This guards
// the harness itself against going vacuous.
func TestReplayDetectsLatencyLies(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		ch, err := socgen.Generate(socgen.Params{Seed: seed})
		if err != nil {
			continue
		}
		vecs := map[string]int{}
		for _, c := range ch.Cores {
			vecs[c.Name] = 10
		}
		f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		tampered := false
		for _, c := range ch.TestableCores() {
			v := c.Versions[c.Selected]
			nv := *v
			nv.Prop = shortenPaths(v.Prop)
			nv.Just = shortenPaths(v.Just)
			if differsIn(nv.Prop, v.Prop) || differsIn(nv.Just, v.Just) {
				tampered = true
			}
			vs := append([]*trans.Version(nil), c.Versions...)
			vs[c.Selected] = &nv
			c.Versions = vs
		}
		if !tampered {
			continue
		}
		e, err := f.Evaluate()
		if err != nil {
			continue // the lie broke scheduling outright: also a detection
		}
		st, err := ReplayEvaluation(ch, e)
		if err != nil {
			return // caught: simulation disagreed with the tampered claim
		}
		if st.Replayed == 0 {
			continue // nothing replayable on this seed; try the next
		}
	}
	t.Fatal("no tampered seed was caught by the differential replay")
}

// shortenPaths clones a path map with every multi-cycle latency reduced
// by one — the "optimistic analyzer" fault the replay must detect.
func shortenPaths(m map[string]*trans.PathUse) map[string]*trans.PathUse {
	out := make(map[string]*trans.PathUse, len(m))
	for name, p := range m {
		np := *p
		if np.Latency >= 2 {
			np.Latency--
		}
		out[name] = &np
	}
	return out
}

func differsIn(a, b map[string]*trans.PathUse) bool {
	for name, p := range a {
		if q, ok := b[name]; ok && q.Latency != p.Latency {
			return true
		}
	}
	return false
}

// TestShrinkFindsSmallerReproducer exercises the shrinker contract on an
// artificial failure: Check fails for any chip once its parameters are
// invalid, and Shrink must return parameters that still fail.
func TestShrinkFindsSmallerReproducer(t *testing.T) {
	p := socgen.Params{Seed: 3, Cores: -5} // invalid: Generate always errors
	if _, err := Check(p); err == nil {
		t.Fatal("expected Check to fail on invalid params")
	}
	min := Shrink(p)
	if _, err := Check(min); err == nil {
		t.Fatalf("shrunk params %+v no longer fail", min)
	}
}

package proptest

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"repro/internal/socgen"
	"repro/internal/wrap"
)

var tamFlag = flag.Int("proptest.tam", 4, "TAM width for the wrapped-chip sweep")

// wrapReproducer formats the command replaying one failing wrapped check.
func wrapReproducer(p WrapParams) string {
	return fmt.Sprintf("go test ./internal/proptest -run TestWrappedChips -proptest.seed=%d -proptest.cores=%d -proptest.topo=%s -proptest.tam=%d",
		p.Gen.Seed, p.Gen.Cores, p.Gen.Topology, p.TAMWidth)
}

func checkWrappedSeed(t *testing.T, p WrapParams, agg *Stats, mu *sync.Mutex) {
	t.Helper()
	st, err := CheckWrapped(p)
	mu.Lock()
	agg.add(st)
	mu.Unlock()
	if err != nil {
		min := ShrinkWrapped(p)
		t.Fatalf("seed %d failed: %v\nshrunk reproducer (cores=%d, tam=%d): %s",
			p.Gen.Seed, err, min.Gen.Cores, min.TAMWidth, wrapReproducer(min))
	}
}

// TestWrappedChips verifies the wrapper/TAM architecture over a sweep of
// seeded SoCs: every wrapper chain is elaborated into real registers and
// pulse-replayed on chipsim, so the per-core SI/SO/TAT claims and the
// chip-level bus sums are machine-checked against simulated cycle counts.
// Failing seeds shrink along both the core count and the TAM width.
func TestWrappedChips(t *testing.T) {
	var mu sync.Mutex
	agg := &Stats{}
	if *seedFlag >= 0 {
		p := WrapParams{Gen: paramsFromFlags(t, uint64(*seedFlag)), TAMWidth: *tamFlag}
		checkWrappedSeed(t, p, agg, &mu)
		t.Logf("seed %d: %d wrapper chains replayed, %d core TAT identities checked",
			*seedFlag, agg.WrapChains, agg.WrapCores)
		return
	}
	t.Run("seeds", func(t *testing.T) {
		for i := 0; i < *nFlag; i++ {
			p := WrapParams{Gen: paramsFromFlags(t, uint64(i)+1), TAMWidth: *tamFlag}
			t.Run(fmt.Sprintf("seed=%d", p.Gen.Seed), func(t *testing.T) {
				t.Parallel()
				checkWrappedSeed(t, p, agg, &mu)
			})
		}
	})
	if t.Failed() {
		return
	}
	t.Logf("%d chips: %d wrapper chains replayed, %d core TAT identities checked",
		*nFlag, agg.WrapChains, agg.WrapCores)
	if agg.WrapChains == 0 || agg.WrapCores == 0 {
		t.Fatalf("no wrapper chain was replayed across %d chips — the wrapped harness is vacuous", *nFlag)
	}
}

// TestWrapReplayDetectsLies tampers individual wrapper claims — a core's
// shift-in length, its TAT, a single chain's record, the chip TAT — and
// requires the pulse replay to catch every one. This guards the harness
// itself against going vacuous.
func TestWrapReplayDetectsLies(t *testing.T) {
	p := socgen.Params{Seed: 1}
	build := func(t *testing.T) (*wrap.Result, func() error) {
		ch, err := wrappedChip(p)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		r := wrap.Evaluate(ch, 3, nil)
		if len(r.Cores) == 0 {
			t.Fatal("seed 1 produced no wrapped cores")
		}
		return r, func() error {
			_, err := ReplayWrapped(ch, r)
			return err
		}
	}

	_, replay := build(t)
	if err := replay(); err != nil {
		t.Fatalf("untampered replay failed: %v", err)
	}

	cases := []struct {
		name   string
		tamper func(r *wrap.Result)
	}{
		{"core-SI", func(r *wrap.Result) { r.Cores[0].SI++ }},
		{"core-TAT", func(r *wrap.Result) { r.Cores[0].TAT-- }},
		{"chain-SO", func(r *wrap.Result) { r.Cores[0].Chains[0].SO++ }},
		{"chip-TAT", func(r *wrap.Result) { r.ChipTAT++ }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, replay := build(t)
			c.tamper(r)
			if err := replay(); err == nil {
				t.Fatalf("tampered %s went undetected by the replay", c.name)
			}
		})
	}
}

// TestShrinkWrappedMinimizesBothDimensions plants a failure that needs at
// least 4 cores AND a TAM at least 3 wide: the shrinker must walk both
// axes down to exactly that boundary. The width axis is the regression —
// the seed-sweep shrinker only ever minimized the core count.
func TestShrinkWrappedMinimizesBothDimensions(t *testing.T) {
	fails := func(q WrapParams) bool { return q.Gen.Cores >= 4 && q.TAMWidth >= 3 }
	p := WrapParams{Gen: socgen.Params{Seed: 7, Cores: 9}, TAMWidth: 6}
	if !fails(p) {
		t.Fatal("planted failure does not fail the starting params")
	}
	min := shrinkWrapped(p, fails)
	if min.Gen.Cores != 4 || min.TAMWidth != 3 {
		t.Fatalf("shrunk to cores=%d tam=%d, want 4/3", min.Gen.Cores, min.TAMWidth)
	}
	// Width-only failures must still shrink even when no smaller core
	// count reproduces.
	widthOnly := func(q WrapParams) bool { return q.TAMWidth >= 2 && q.Gen.Cores == 9 }
	min = shrinkWrapped(p, widthOnly)
	if min.Gen.Cores != 9 || min.TAMWidth != 2 {
		t.Fatalf("width-only failure shrunk to cores=%d tam=%d, want 9/2", min.Gen.Cores, min.TAMWidth)
	}
}

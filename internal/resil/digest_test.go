package resil

// The degraded digest pins, byte for byte, what degraded evaluation
// reports on generated chips: a zero-fault fork's bottom line and report,
// and a seeded random campaign per chip. Nothing else pins degraded
// results off Systems 1 and 2, and a change to when a faulted chip's
// provisioned test muxes become routable moves hundreds of them while
// every golden still passes.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/socgen"
)

const degradedDigest = "6d21fe5903ce697335ce04c91656d283edf04d1e1ddbbf09cbe2e1ce4fc1d374"

func TestDegradedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares and evaluates 36 generated chips")
	}
	shapes := []socgen.Params{
		{},
		{Cores: 10, PIBudget: 2, POBudget: 2},
		{Cores: 24, Topology: socgen.RandomDAG, PIBudget: 3, POBudget: 2},
	}
	h := sha256.New()
	for seed := 1; seed <= 12; seed++ {
		for _, shape := range shapes {
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
			d, err := f.Fork(ch.Clone()).EvaluateDegradedCtx(context.Background())
			if err != nil {
				t.Fatalf("%s: zero-fault fork: %v", ch.Name, err)
			}
			fmt.Fprintf(h, "%s zero-fault %d %d %d\n%s", ch.Name, d.TAT, d.ChipDFTCells(), d.MuxCells, d.Report.Format())
			c := &Campaign{Flow: f, Runs: RandomSets(ch, 12, 2, int64(seed)), Seed: int64(seed)}
			outs, err := c.Execute(context.Background())
			if err != nil {
				t.Fatalf("%s: campaign: %v", ch.Name, err)
			}
			fmt.Fprint(h, c.Report(outs).Format())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != degradedDigest {
		t.Errorf("degraded digest %s, want %s: degraded evaluation changed its results", got, degradedDigest)
	}
}

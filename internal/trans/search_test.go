package trans_test

import (
	"reflect"
	"testing"

	"repro/internal/hscan"
	"repro/internal/rtl"
	"repro/internal/rtlgen"
	"repro/internal/soc"
	"repro/internal/systems"
	"repro/internal/trans"
)

// TestSearchMatchesReference runs the one transparency search, forward
// for propagation and backward for justification, against the two
// mirror-image searches it replaced (refsearch_test.go). The corpus is
// every logic core of Systems 1 and 2 plus 60 generated cores; each is
// searched on its base RCG and on the RCG of every version of its
// ladder, which carries the created transparency muxes, over HSCAN
// edges only and over all edges. Every search must agree on success and
// return a deeply equal PathUse: latency, edge masks, freezes and ends.
func TestSearchMatchesReference(t *testing.T) {
	var cores []*rtl.Core
	for _, ch := range []*soc.Chip{systems.System1(), systems.System2()} {
		for _, c := range ch.TestableCores() {
			cores = append(cores, c.RTL)
		}
	}
	cores = append(cores, rtlgen.Many(60, 900)...)

	searches, graphs, muxed := 0, 0, 0
	for _, c := range cores {
		scan, err := hscan.Insert(c)
		if err != nil {
			t.Fatalf("%s: hscan: %v", c.Name, err)
		}
		base, err := trans.Build(c, scan)
		if err != nil {
			t.Fatalf("%s: build: %v", c.Name, err)
		}
		rcgs := []*trans.RCG{base}
		vs, err := trans.Versions(base.Clone())
		if err != nil {
			t.Fatalf("%s: versions: %v", c.Name, err)
		}
		for _, v := range vs {
			rcgs = append(rcgs, v.RCG)
		}
		for _, g := range rcgs {
			graphs++
			for _, e := range g.Edges {
				if e.Created {
					muxed++
					break
				}
			}
			for _, hscanOnly := range []bool{true, false} {
				for _, in := range g.InputNodes() {
					got, ok := g.SolveProp(in, hscanOnly)
					want, wantOK := g.RefSolveProp(in, hscanOnly)
					if ok != wantOK || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: propagate %s (hscanOnly=%v): got %v %+v, reference %v %+v",
							c.Name, g.Nodes[in].Name, hscanOnly, ok, got, wantOK, want)
					}
					searches++
				}
				for _, out := range g.OutputNodes() {
					got, ok := g.SolveJust(out, hscanOnly)
					want, wantOK := g.RefSolveJust(out, hscanOnly)
					if ok != wantOK || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: justify %s (hscanOnly=%v): got %v %+v, reference %v %+v",
							c.Name, g.Nodes[out].Name, hscanOnly, ok, got, wantOK, want)
					}
					searches++
				}
			}
		}
	}
	if muxed == 0 {
		t.Fatal("no RCG in the corpus carries a created mux; the ladder versions were not covered")
	}
	t.Logf("%d searches over %d RCGs (%d with created muxes) of %d cores", searches, graphs, muxed, len(cores))
}

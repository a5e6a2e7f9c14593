package ccg_test

// Unit tests of the buffer-reusing Finder and the incremental graph
// splice: the multi-target search must be bit-identical to dedicated
// single-target searches (including under duplicate sources/targets and
// unreachable targets), results must be independent of whatever graph
// the Finder last ran on, and CloneWithVersion must produce exactly the
// edge list a from-scratch BuildSelection would.

import (
	"reflect"
	"testing"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/socgen"
)

func genGraph(t *testing.T, p socgen.Params) *ccg.Graph {
	t.Helper()
	ch, err := socgen.Generate(p)
	if err != nil {
		t.Fatalf("socgen: %v", err)
	}
	g, err := ccg.Build(ch)
	if err != nil {
		t.Fatalf("ccg.Build: %v", err)
	}
	return g
}

func samePath(a, b *ccg.PathResult) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Arrival != b.Arrival || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Start != sb.Start || sa.End != sb.End || sa.Edge.ID != sb.Edge.ID {
			return false
		}
	}
	return true
}

// allTargets is every core port plus every PO node — a target set wide
// enough that some entries are typically unreachable from the PIs.
func allTargets(g *ccg.Graph) []int {
	var ts []int
	for i, n := range g.Nodes {
		if n.Core != "" || n.Kind == ccg.ChipPO {
			ts = append(ts, i)
		}
	}
	return ts
}

func TestMultiMatchesSingle(t *testing.T) {
	for _, p := range []socgen.Params{
		{Seed: 11, Cores: 8, Topology: socgen.Chain},
		{Seed: 12, Cores: 9, Topology: socgen.Mesh},
		{Seed: 13, Cores: 10, Topology: socgen.RandomDAG},
		{Seed: 14, Cores: 8, Topology: socgen.Hub},
	} {
		g := genGraph(t, p)
		srcs := g.PINodes()
		targets := allTargets(g)
		fi := ccg.NewFinder()
		multi := fi.ShortestPathMulti(g, srcs, targets, ccg.Reservations{})
		if len(multi) != len(targets) {
			t.Fatalf("%v: got %d results for %d targets", p.Topology, len(multi), len(targets))
		}
		reached := 0
		for i, tgt := range targets {
			single := fi.ShortestPath(g, srcs, tgt, ccg.Reservations{})
			if !samePath(multi[i], single) {
				t.Fatalf("%v: target %s: multi-target path differs from single-target path",
					p.Topology, g.Nodes[tgt].Name())
			}
			if single != nil {
				reached++
			}
		}
		if reached == 0 {
			t.Fatalf("%v: no target reachable; test is vacuous", p.Topology)
		}
	}
}

func TestMultiDuplicateSourcesAndTargets(t *testing.T) {
	g := genGraph(t, socgen.Params{Seed: 21, Cores: 8, Topology: socgen.Mesh})
	srcs := g.PINodes()
	if len(srcs) < 1 {
		t.Fatal("chip has no PIs")
	}
	targets := allTargets(g)

	// Duplicating every source must not change any path: duplicates are
	// seeded once.
	dup := append(append(append([]int{}, srcs...), srcs...), srcs[0])
	fi := ccg.NewFinder()
	want := fi.ShortestPathMulti(g, srcs, targets, ccg.Reservations{})
	got := fi.ShortestPathMulti(g, dup, targets, ccg.Reservations{})
	for i := range targets {
		if !samePath(want[i], got[i]) {
			t.Fatalf("duplicate sources changed the path to %s", g.Nodes[targets[i]].Name())
		}
	}

	// A repeated target fills every one of its result slots identically.
	tdup := []int{targets[0], targets[1], targets[0], targets[0]}
	res := fi.ShortestPathMulti(g, srcs, tdup, ccg.Reservations{})
	if !samePath(res[0], res[2]) || !samePath(res[0], res[3]) {
		t.Fatal("repeated target positions disagree")
	}
	if !samePath(res[0], want[0]) || !samePath(res[1], want[1]) {
		t.Fatal("paths under target duplication differ from the plain search")
	}
}

func TestMultiUnreachableTargets(t *testing.T) {
	g := genGraph(t, socgen.Params{Seed: 31, Cores: 8, Topology: socgen.Chain})
	pos := g.PONodes()
	pis := g.PINodes()
	if len(pos) == 0 || len(pis) == 0 {
		t.Fatal("chip lacks pins")
	}
	// Nothing flows backwards from a PO; every PI target must come back
	// nil, and mixing them with reachable targets must not disturb those.
	fi := ccg.NewFinder()
	mixed := append(append([]int{}, pis...), allTargets(g)...)
	res := fi.ShortestPathMulti(g, pos, mixed, ccg.Reservations{})
	for i := range pis {
		if res[i] != nil {
			t.Fatalf("found a path from a PO back to PI %s", g.Nodes[pis[i]].Name())
		}
	}
	// Forward direction: unreachable entries nil, reachable ones equal to
	// their single-target searches even with the nil entries interleaved.
	fwd := fi.ShortestPathMulti(g, pis, mixed, ccg.Reservations{})
	for i, tgt := range mixed {
		if !samePath(fwd[i], fi.ShortestPath(g, pis, tgt, ccg.Reservations{})) {
			t.Fatalf("mixed reachable/unreachable target %s diverges", g.Nodes[tgt].Name())
		}
	}
}

// TestFinderReuseAcrossGraphs runs one Finder across graphs of different
// sizes in alternation and requires every answer to match a fresh
// Finder's — the epoch-stamped buffers must not leak state between
// queries or graphs.
func TestFinderReuseAcrossGraphs(t *testing.T) {
	big := genGraph(t, socgen.Params{Seed: 41, Cores: 14, Topology: socgen.RandomDAG})
	small := genGraph(t, socgen.Params{Seed: 42, Cores: 4, Topology: socgen.Chain})
	shared := ccg.NewFinder()
	for round := 0; round < 3; round++ {
		for _, g := range []*ccg.Graph{big, small} {
			targets := allTargets(g)
			got := shared.ShortestPathMulti(g, g.PINodes(), targets, ccg.Reservations{})
			want := ccg.NewFinder().ShortestPathMulti(g, g.PINodes(), targets, ccg.Reservations{})
			for i := range targets {
				if !samePath(got[i], want[i]) {
					t.Fatalf("round %d: reused Finder diverges at %s", round, g.Nodes[targets[i]].Name())
				}
			}
		}
	}
}

// TestCloneWithVersionMatchesRebuild splices each core's next version
// into a built graph and requires the exact edge list a from-scratch
// BuildSelection produces — IDs, latencies, resource keys, everything.
func TestCloneWithVersionMatchesRebuild(t *testing.T) {
	ch, err := socgen.Generate(socgen.Params{Seed: 51, Cores: 10, Topology: socgen.Mesh})
	if err != nil {
		t.Fatalf("socgen: %v", err)
	}
	// Prepare grows each core's transparency ladder; without it every
	// core is single-version and the splice has nothing to swap.
	vecs := map[string]int{}
	for i, c := range ch.Cores {
		vecs[c.Name] = 9 + i%13
	}
	if _, err := core.Prepare(ch, &core.Options{VectorOverride: vecs}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	base := map[string]int{}
	for _, c := range ch.TestableCores() {
		base[c.Name] = c.Selected
	}
	g, err := ccg.BuildSelection(ch, base)
	if err != nil {
		t.Fatalf("BuildSelection: %v", err)
	}
	flips := 0
	for _, c := range ch.TestableCores() {
		if len(c.Versions) < 2 {
			continue
		}
		v := (base[c.Name] + 1) % len(c.Versions)
		clone := g.CloneWithVersion(g.EdgeCount(), c, c.VersionAt(v))
		if clone == nil {
			t.Fatalf("CloneWithVersion(%s) refused a valid splice", c.Name)
		}
		sel := map[string]int{}
		for k, vv := range base {
			sel[k] = vv
		}
		sel[c.Name] = v
		want, err := ccg.BuildSelection(ch, sel)
		if err != nil {
			t.Fatalf("BuildSelection(flip %s): %v", c.Name, err)
		}
		if len(clone.Edges) != len(want.Edges) {
			t.Fatalf("flip %s: %d edges vs %d rebuilt", c.Name, len(clone.Edges), len(want.Edges))
		}
		for i := range clone.Edges {
			if !reflect.DeepEqual(*clone.Edges[i], *want.Edges[i]) {
				t.Fatalf("flip %s: edge %d differs:\nclone: %+v\nfresh: %+v",
					c.Name, i, *clone.Edges[i], *want.Edges[i])
			}
		}
		flips++
	}
	if flips == 0 {
		t.Fatal("no multi-version cores; splice never exercised")
	}
	// An out-of-range pristine cursor must refuse, not corrupt.
	c := ch.TestableCores()[0]
	if g.CloneWithVersion(-1, c, c.Version()) != nil {
		t.Error("negative pristine cursor accepted")
	}
	if g.CloneWithVersion(g.EdgeCount()+1, c, c.Version()) != nil {
		t.Error("past-the-end pristine cursor accepted")
	}
}

// TestDistancesMatchSearch requires the whole-graph sweeps to give every
// node the arrival of a reservation-free search: DistancesFrom(PIs)
// against a search from the PIs to the node, DistancesTo(POs) against the
// earliest PO a search from the node reaches, -1 where the search finds
// nothing.
func TestDistancesMatchSearch(t *testing.T) {
	arrival := func(p *ccg.PathResult) int {
		if p == nil {
			return -1
		}
		return p.Arrival
	}
	unreached := 0
	for _, p := range []socgen.Params{
		{Seed: 61, Cores: 8, Topology: socgen.Chain, Memories: 1},
		{Seed: 62, Cores: 9, Topology: socgen.Mesh},
		{Seed: 63, Cores: 10, Topology: socgen.RandomDAG, Memories: 1},
		{Seed: 64, Cores: 8, Topology: socgen.Hub},
	} {
		ch, err := socgen.Generate(p)
		if err != nil {
			t.Fatalf("socgen: %v", err)
		}
		vecs := map[string]int{}
		for _, c := range ch.Cores {
			vecs[c.Name] = 10
		}
		if _, err := core.Prepare(ch, &core.Options{VectorOverride: vecs}); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		g, err := ccg.Build(ch)
		if err != nil {
			t.Fatalf("ccg.Build: %v", err)
		}
		pis, pos := g.PINodes(), g.PONodes()
		from, to := g.DistancesFrom(pis), g.DistancesTo(pos)
		fi := ccg.NewFinder()
		for v := range g.Nodes {
			if want := arrival(fi.ShortestPath(g, pis, v, ccg.Reservations{})); from[v] != want {
				t.Fatalf("%v: DistancesFrom at %s = %d, search arrives at %d", p.Topology, g.Nodes[v].Name(), from[v], want)
			}
			want := -1
			for _, q := range fi.ShortestPathMulti(g, []int{v}, pos, ccg.Reservations{}) {
				if a := arrival(q); a >= 0 && (want < 0 || a < want) {
					want = a
				}
			}
			if to[v] != want {
				t.Fatalf("%v: DistancesTo at %s = %d, nearest PO at %d", p.Topology, g.Nodes[v].Name(), to[v], want)
			}
			if from[v] < 0 || to[v] < 0 {
				unreached++
			}
		}
	}
	if unreached == 0 {
		t.Fatal("every node reachable both ways; the -1 case is not exercised")
	}
}

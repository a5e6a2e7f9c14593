package ccg_test

// Unit tests of the buffer-reusing Finder and the incremental graph
// splice: the nearest-target search must find exactly the path of the
// strict-< scan over dedicated single-target searches (including under
// duplicate sources/targets, unreachable targets and reservations),
// results must be independent of whatever graph the Finder last ran on,
// and CloneWithVersion must produce exactly the edge list a from-scratch
// BuildSelection would.

import (
	"reflect"
	"slices"
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

// preparedGraph is genGraph after core preparation, which gives the cores
// transparency edges with shared resources to reserve.
func preparedGraph(t *testing.T, p socgen.Params) *ccg.Graph {
	t.Helper()
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
	return g
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

// nearestRef is the reference NearestPath must reproduce: a dedicated
// single-target search to every target, keeping the earliest arrival by
// strict <, so the first in targets order of those that tie.
func nearestRef(g *ccg.Graph, sources, targets []int, resv ccg.Reservations) *ccg.PathResult {
	fi := ccg.NewFinder()
	var best *ccg.PathResult
	for _, t := range targets {
		if p := fi.ShortestPath(g, sources, t, resv); p != nil && (best == nil || p.Arrival < best.Arrival) {
			best = p
		}
	}
	return best
}

// TestMultiMatchesSingle requires the nearest-PO search from every core
// output to equal the per-PO reference on socgen chips of every
// topology, with each core's observation reservations accumulated as
// the scheduler does, and the nearest search from the PIs over all core
// ports and POs to do the same.
func TestMultiMatchesSingle(t *testing.T) {
	for _, p := range []socgen.Params{
		{Seed: 11, Cores: 8, Topology: socgen.Chain},
		{Seed: 12, Cores: 9, Topology: socgen.Mesh},
		{Seed: 13, Cores: 10, Topology: socgen.RandomDAG},
		{Seed: 14, Cores: 8, Topology: socgen.Hub},
	} {
		g := preparedGraph(t, p)
		pos := g.PONodes()
		fi := ccg.NewFinder()
		reached, reserved := 0, 0
		for _, c := range g.Chip.TestableCores() {
			resv := ccg.Reservations{}
			for _, port := range c.RTL.Outputs() {
				u, _ := g.NodeIndex(c.Name + "." + port.Name)
				got := fi.NearestPath(g, []int{u}, pos, resv)
				if want := nearestRef(g, []int{u}, pos, resv); !samePath(got, want) {
					t.Fatalf("%v: %s: nearest-PO path differs from the per-PO reference", p.Topology, g.Nodes[u].Name())
				}
				if got != nil {
					reached++
					reserved += len(resv)
					g.ReservePath(got, resv)
				}
			}
		}
		if reached == 0 || reserved == 0 {
			t.Fatalf("%v: %d outputs reached a PO, %d searches ran under reservations; test is vacuous", p.Topology, reached, reserved)
		}
		if got, want := fi.NearestPath(g, g.PINodes(), allTargets(g), nil), nearestRef(g, g.PINodes(), allTargets(g), nil); got == nil || !samePath(got, want) {
			t.Fatalf("%v: nearest path from the PIs %+v, reference %+v", p.Topology, got, want)
		}
	}
}

// TestMultiDuplicateSourcesAndTargets requires repeated sources and
// targets to leave the nearest path unchanged, and the target order to
// decide between targets that tie.
func TestMultiDuplicateSourcesAndTargets(t *testing.T) {
	g := genGraph(t, socgen.Params{Seed: 21, Cores: 8, Topology: socgen.Mesh})
	srcs := g.PINodes()
	if len(srcs) < 1 {
		t.Fatal("chip has no PIs")
	}
	targets := allTargets(g)
	fi := ccg.NewFinder()
	want := fi.NearestPath(g, srcs, targets, nil)
	if want == nil {
		t.Fatal("no target reachable from the PIs")
	}
	dup := append(append(append([]int{}, srcs...), srcs...), srcs[0])
	tdup := append(append([]int{}, targets...), targets...)
	if got := fi.NearestPath(g, dup, tdup, nil); !samePath(got, want) {
		t.Fatal("duplicate sources and targets changed the nearest path")
	}
	// Reversed, the targets that tie are tried the other way round.
	rev := slices.Clone(targets)
	slices.Reverse(rev)
	if got, ref := fi.NearestPath(g, srcs, rev, nil), nearestRef(g, srcs, rev, nil); !samePath(got, ref) {
		t.Fatal("nearest path over the reversed targets differs from the reference")
	}
}

// TestMultiUnreachableTargets requires a nil path when no target is
// reachable and the reference path when unreachable targets are listed
// among reachable ones.
func TestMultiUnreachableTargets(t *testing.T) {
	g := genGraph(t, socgen.Params{Seed: 31, Cores: 8, Topology: socgen.Chain})
	pos := g.PONodes()
	pis := g.PINodes()
	if len(pos) == 0 || len(pis) == 0 {
		t.Fatal("chip lacks pins")
	}
	fi := ccg.NewFinder()
	// Nothing flows backwards from a PO.
	if p := fi.NearestPath(g, pos, pis, nil); p != nil {
		t.Fatalf("found a path from a PO back to PI %s", g.Nodes[p.Steps[0].Edge.From].Name())
	}
	// The PIs first: unreachable from a core output, listed before every
	// reachable target.
	for _, v := range allTargets(g) {
		mixed := append(append([]int{}, pis...), pos...)
		if got, want := fi.NearestPath(g, []int{v}, mixed, nil), nearestRef(g, []int{v}, mixed, nil); !samePath(got, want) {
			t.Fatalf("from %s: mixed reachable/unreachable targets diverge", g.Nodes[v].Name())
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
			for _, tgt := range allTargets(g) {
				got := shared.ShortestPath(g, g.PINodes(), tgt, nil)
				want := ccg.NewFinder().ShortestPath(g, g.PINodes(), tgt, nil)
				if !samePath(got, want) {
					t.Fatalf("round %d: reused Finder diverges at %s", round, g.Nodes[tgt].Name())
				}
				got = shared.NearestPath(g, []int{tgt}, g.PONodes(), nil)
				want = ccg.NewFinder().NearestPath(g, []int{tgt}, g.PONodes(), nil)
				if !samePath(got, want) {
					t.Fatalf("round %d: reused Finder's nearest PO from %s diverges", round, g.Nodes[tgt].Name())
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
	base := ch.Resolve(nil)
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
	if g.CloneWithVersion(-1, c, c.VersionAt(base[c.Name])) != nil {
		t.Error("negative pristine cursor accepted")
	}
	if g.CloneWithVersion(g.EdgeCount()+1, c, c.VersionAt(base[c.Name])) != nil {
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
			if want := arrival(fi.NearestPath(g, []int{v}, pos, ccg.Reservations{})); to[v] != want {
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

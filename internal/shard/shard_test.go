package shard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/socgen"
	"repro/internal/systems"
)

func TestPlanCoversEveryIndexOnce(t *testing.T) {
	for _, total := range []int64{0, 1, 7, 100, 1001} {
		for _, n := range []int{1, 2, 3, 7, 16, 200} {
			plan := Plan(total, n)
			if len(plan) != n {
				t.Fatalf("Plan(%d,%d): %d ranges", total, n, len(plan))
			}
			var covered int64
			for i, r := range plan {
				covered += r.Len()
				if i > 0 && plan[i-1].Hi != r.Lo {
					t.Fatalf("Plan(%d,%d): gap between shard %d and %d", total, n, i-1, i)
				}
			}
			if covered != total || plan[0].Lo != 0 || plan[n-1].Hi != total {
				t.Fatalf("Plan(%d,%d) does not tile [0,%d): %v", total, n, total, plan)
			}
		}
	}
}

func TestRangeOps(t *testing.T) {
	done := map[int64]struct{}{1: {}, 2: {}, 3: {}, 7: {}, 9: {}, 10: {}}
	got := coalesce(done, []Range{{Lo: 4, Hi: 6}})
	want := []Range{{Lo: 1, Hi: 6}, {Lo: 7, Hi: 8}, {Lo: 9, Hi: 11}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coalesce = %v, want %v", got, want)
	}
	for i := int64(0); i < 12; i++ {
		_, fresh := done[i]
		wantIn := fresh || (i >= 4 && i < 6)
		if inRanges(got, i) != wantIn {
			t.Fatalf("inRanges(%d) = %v", i, !wantIn)
		}
	}
	missing := subtract(Range{Lo: 0, Hi: 12}, got)
	wantMissing := []Range{{Lo: 0, Hi: 1}, {Lo: 6, Hi: 7}, {Lo: 8, Hi: 9}, {Lo: 11, Hi: 12}}
	if !reflect.DeepEqual(missing, wantMissing) {
		t.Fatalf("subtract = %v, want %v", missing, wantMissing)
	}
	if countRanges(got) != 8 {
		t.Fatalf("countRanges = %d", countRanges(got))
	}
}

func TestCanonFrontCompositional(t *testing.T) {
	pts := []FrontPoint{
		{Selection: map[string]int{"A": 0}, Cells: 10, TAT: 100},
		{Selection: map[string]int{"A": 1}, Cells: 10, TAT: 100}, // tie: larger key loses
		{Selection: map[string]int{"A": 2}, Cells: 10, TAT: 120}, // dominated
		{Selection: map[string]int{"A": 3}, Cells: 20, TAT: 80},
		{Selection: map[string]int{"A": 4}, Cells: 30, TAT: 80}, // dominated (same TAT, more cells)
		{Selection: map[string]int{"A": 5}, Cells: 25, TAT: 90}, // dominated
	}
	want := CanonFront(pts)
	if len(want) != 2 || want[0].Selection["A"] != 0 || want[1].Selection["A"] != 3 {
		t.Fatalf("CanonFront = %v", want)
	}
	// Every 2-partition of the points must merge to the same front.
	for mask := 0; mask < 1<<len(pts); mask++ {
		var a, b []FrontPoint
		for i, p := range pts {
			if mask&(1<<i) != 0 {
				a = append(a, p)
			} else {
				b = append(b, p)
			}
		}
		if got := MergeFronts(CanonFront(a), CanonFront(b)); !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %b: merged front %v, want %v", mask, got, want)
		}
	}
}

// campaignFlow caches one prepared System1 flow per test binary —
// Prepare runs full ATPG and dominates campaign test time otherwise.
var sharedCampaignFlow *core.Flow

func campaignFlow(t testing.TB) *core.Flow {
	t.Helper()
	if sharedCampaignFlow == nil {
		f, err := core.Prepare(systems.System1(), &core.Options{ATPG: &atpg.Options{BacktrackLimit: 30}})
		if err != nil {
			t.Fatal(err)
		}
		sharedCampaignFlow = f
	}
	return sharedCampaignFlow
}

// generatedFlow prepares a small seeded socgen chip (the cmd/tradeoff
// -gen vector-override rule).
func generatedFlow(t testing.TB, seed uint64, cores int) *core.Flow {
	t.Helper()
	ch, err := socgen.Generate(socgen.Params{Seed: seed, Cores: cores, Topology: socgen.RandomDAG})
	if err != nil {
		t.Fatal(err)
	}
	vecs := map[string]int{}
	for i, c := range ch.TestableCores() {
		vecs[c.Name] = 10 + i%23
	}
	f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// singleProcessFront is the unsharded reference: the canonical front
// over a plain EnumerateCtx of the whole (capped) space.
func singleProcessFront(t *testing.T, f *core.Flow, maxPoints int) []FrontPoint {
	t.Helper()
	pts, err := explore.EnumerateCtx(context.Background(), f, explore.Options{MaxPoints: maxPoints})
	if err != nil {
		t.Fatal(err)
	}
	comp := make([]FrontPoint, len(pts))
	for i, p := range pts {
		comp[i] = FromPoint(p)
	}
	return CanonFront(comp)
}

// TestShardedFrontDeterminism is the partitioning gate: for random
// seeds, the union of per-shard windowed enumerations must equal the
// single-process front at N ∈ {1, 2, 3, 7} shards.
func TestShardedFrontDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 11, 1998} {
		f := generatedFlow(t, seed, 6)
		const maxPoints = 160
		want := singleProcessFront(t, f, maxPoints)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty reference front (vacuous test)", seed)
		}
		space := explore.SelectionSpace(f, maxPoints)
		for _, n := range []int{1, 2, 3, 7} {
			var fronts [][]FrontPoint
			for _, win := range Plan(int64(space), n) {
				pts, err := explore.EnumerateCtx(context.Background(), f, explore.Options{
					MaxPoints: maxPoints,
					First:     int(win.Lo),
					Count:     int(win.Len()),
				})
				if err != nil {
					t.Fatal(err)
				}
				comp := make([]FrontPoint, len(pts))
				for j, p := range pts {
					comp[j] = FromPoint(p)
				}
				fronts = append(fronts, CanonFront(comp))
			}
			if got := MergeFronts(fronts...); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d shards: union-of-shards front differs from single-process:\n got %v\nwant %v",
					seed, n, got, want)
			}
		}
	}
}

// TestRunExploreMatchesSingleProcess drives the full runner (checkpoints
// on, multiple shards in one process) against the plain enumeration.
func TestRunExploreMatchesSingleProcess(t *testing.T) {
	f := generatedFlow(t, 7, 6)
	const maxPoints = 120
	want := singleProcessFront(t, f, maxPoints)
	for _, n := range []int{1, 3} {
		res, err := RunExplore(context.Background(), f, Options{
			Shards:     n,
			Index:      All,
			Checkpoint: filepath.Join(t.TempDir(), "ck"),
			Every:      time.Millisecond,
			MaxPoints:  maxPoints,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Front, want) {
			t.Fatalf("%d shards: front differs from single-process", n)
		}
		if res.Done != res.Total || len(res.Incomplete) != 0 {
			t.Fatalf("%d shards: done=%d total=%d incomplete=%v", n, res.Done, res.Total, res.Incomplete)
		}
	}
}

// TestRunExploreResumeSkipsCompletedWork checkpoints shard 0, then
// resumes the whole run: the resumed process must not re-evaluate what
// the checkpoint already covers, and the merged front must match.
func TestRunExploreResumeSkipsCompletedWork(t *testing.T) {
	f := generatedFlow(t, 5, 6)
	const maxPoints = 100
	prefix := filepath.Join(t.TempDir(), "ck")
	want := singleProcessFront(t, f, maxPoints)

	// Phase 1: run only shard 0 of 2, to completion.
	res0, err := RunExplore(context.Background(), f, Options{
		Shards: 2, Index: 0, Checkpoint: prefix, Every: time.Millisecond, MaxPoints: maxPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Done == 0 {
		t.Fatal("shard 0 did nothing")
	}

	// Phase 2: resume all shards; shard 0's window is already covered by
	// the checkpoint and must not be re-evaluated.
	res, err := RunExplore(context.Background(), f, Options{
		Shards: 2, Index: All, Checkpoint: prefix, Resume: true, Every: time.Millisecond, MaxPoints: maxPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Front, want) {
		t.Fatalf("resumed front differs from single-process:\n got %v\nwant %v", res.Front, want)
	}
	if res.Done != res.Total {
		t.Fatalf("resume left work: done=%d total=%d incomplete=%v", res.Done, res.Total, res.Incomplete)
	}

	// Phase 3: resume again — everything checkpointed, so this is a pure
	// merge; it must produce the same front yet evaluate nothing new.
	res2, err := RunExplore(context.Background(), f, Options{
		Shards: 2, Index: All, Checkpoint: prefix, Resume: true, MaxPoints: maxPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Front, want) {
		t.Fatal("pure-merge resume changed the front")
	}
}

// TestRunExploreRefusesForeignCheckpoint: resuming a checkpoint written
// for a different chip/partitioning must fail loudly, not merge wrong.
func TestRunExploreRefusesForeignCheckpoint(t *testing.T) {
	f := generatedFlow(t, 5, 6)
	other := generatedFlow(t, 6, 6)
	prefix := filepath.Join(t.TempDir(), "ck")
	if _, err := RunExplore(context.Background(), f, Options{
		Shards: 1, Index: All, Checkpoint: prefix, MaxPoints: 40,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunExplore(context.Background(), other, Options{
		Shards: 1, Index: All, Checkpoint: prefix, Resume: true, MaxPoints: 40,
	}); err == nil {
		t.Fatal("foreign checkpoint resumed without error")
	}
	// A checkpoint recording a different partitioning: normally unreachable
	// (the file name embeds the shard count) but if one lands at the wrong
	// path it must still be refused by the identity fields in the frame.
	data, err := os.ReadFile(CheckpointPath(prefix, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(CheckpointPath(prefix, 0, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunExplore(context.Background(), f, Options{
		Shards: 2, Index: 0, Checkpoint: prefix, Resume: true, MaxPoints: 40,
	}); err == nil {
		t.Fatal("checkpoint with different partitioning resumed without error")
	}
}

// TestRunExploreDegradesWithAttribution: a shard whose evaluations fail
// runs its window once — evaluation failures are deterministic, so a
// retry would fail the same way — and the run returns the other shard's
// checkpointed work with exactly the failed window attributed.
func TestRunExploreDegradesWithAttribution(t *testing.T) {
	f := generatedFlow(t, 9, 6)
	const maxPoints = 80
	prefix := filepath.Join(t.TempDir(), "ck")
	shard0, err := RunExplore(context.Background(), f, Options{
		Shards: 2, Index: 0, Checkpoint: prefix, MaxPoints: maxPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every evaluation from here on fails: the forced mux names no port.
	// The fingerprint ignores forced muxes, so shard 0's checkpoint still
	// resumes.
	f.ForcedMuxes = []core.ForcedMux{{Core: "nowhere", Port: "x", Input: true}}

	tr, _ := obs.Enable(0)
	defer obs.Disable()
	res, err := RunExplore(context.Background(), f, Options{
		Shards: 2, Index: All, Checkpoint: prefix, Resume: true, MaxPoints: maxPoints,
	})
	if err == nil || !strings.HasPrefix(err.Error(), "shard 1 (explore): ") ||
		!strings.Contains(err.Error(), "forced mux on unknown port") {
		t.Fatalf("error = %v; want shard 1's forced-mux failure", err)
	}
	if res == nil || len(res.Front) == 0 || !reflect.DeepEqual(res.Front, shard0.Front) {
		t.Fatalf("partial front = %v; want shard 0's front %v", res, shard0.Front)
	}
	space := int64(explore.SelectionSpace(f, maxPoints))
	wantMissing := Plan(space, 2)[1]
	if len(res.Incomplete) != 1 || res.Incomplete[0] != wantMissing {
		t.Fatalf("incomplete attribution = %v, want [%v]", res.Incomplete, wantMissing)
	}
	if res.Done != space-wantMissing.Len() {
		t.Fatalf("done = %d, want %d", res.Done, space-wantMissing.Len())
	}
	// One enumeration passes over shard 0's checkpoint, one is shard 1's
	// only attempt.
	enumerations := 0
	for _, r := range tr.Records() {
		if r.Name == "explore/enumerate" {
			enumerations++
		}
	}
	if enumerations != 2 {
		t.Fatalf("%d enumerations; want 2: one over checkpointed shard 0, one attempt of failing shard 1", enumerations)
	}
}

// TestRunExploreMergeUnderExpiredContext: a merge whose context is
// already done still loads every shard's checkpoint, so work that
// completed is reported, not attributed as missing.
func TestRunExploreMergeUnderExpiredContext(t *testing.T) {
	f := generatedFlow(t, 5, 6)
	const maxPoints = 32
	prefix := filepath.Join(t.TempDir(), "ck")
	shard1, err := RunExplore(context.Background(), f, Options{
		Shards: 2, Index: 1, Checkpoint: prefix, MaxPoints: maxPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunExplore(ctx, f, Options{
		Shards: 2, Index: All, Checkpoint: prefix, Resume: true, MaxPoints: maxPoints,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("merge under a cancelled context returned %v", err)
	}
	plan := Plan(int64(explore.SelectionSpace(f, maxPoints)), 2)
	if res.Done != plan[1].Len() || !reflect.DeepEqual(res.Incomplete, []Range{plan[0]}) {
		t.Fatalf("done=%d incomplete=%v; want done=%d incomplete=[%v]", res.Done, res.Incomplete, plan[1].Len(), plan[0])
	}
	if len(res.Front) == 0 || !reflect.DeepEqual(res.Front, shard1.Front) {
		t.Fatalf("front %v; want shard 1's checkpointed front %v", res.Front, shard1.Front)
	}
}

// TestRunCampaignMergeUnderExpiredContext is the campaign counterpart:
// a checkpointed shard's records survive a merge whose context is done.
func TestRunCampaignMergeUnderExpiredContext(t *testing.T) {
	f := campaignFlow(t)
	const seed = 11
	c := &resil.Campaign{Flow: f, Runs: resil.RandomSets(f.Chip, 4, 2, seed), Seed: seed}
	prefix := filepath.Join(t.TempDir(), "ck")
	shard1, err := RunCampaign(context.Background(), c, Options{Shards: 2, Index: 1, Checkpoint: prefix})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCampaign(ctx, c, Options{Shards: 2, Index: All, Checkpoint: prefix, Resume: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("merge under a cancelled context returned %v", err)
	}
	plan := Plan(int64(len(c.Runs)), 2)
	if res.Done != plan[1].Len() || !reflect.DeepEqual(res.Incomplete, []Range{plan[0]}) {
		t.Fatalf("done=%d incomplete=%v; want done=%d incomplete=[%v]", res.Done, res.Incomplete, plan[1].Len(), plan[0])
	}
	if len(res.Report.Records) == 0 || !reflect.DeepEqual(res.Report, shard1.Report) {
		t.Fatalf("report %+v; want shard 1's checkpointed report %+v", res.Report, shard1.Report)
	}
}

// TestRunCampaignMatchesSingleProcess: the sharded campaign report must
// be bit-identical to the single-process Execute+Report, at several N.
func TestRunCampaignMatchesSingleProcess(t *testing.T) {
	f := campaignFlow(t)
	const seed = 42
	c := &resil.Campaign{Flow: f, Runs: resil.RandomSets(f.Chip, 9, 2, seed), Seed: seed}
	outs, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := c.Report(outs)
	if len(want.Records) != 9 {
		t.Fatalf("reference report has %d records", len(want.Records))
	}
	for _, n := range []int{1, 2, 3, 7} {
		res, err := RunCampaign(context.Background(), c, Options{
			Shards: n, Index: All,
			Checkpoint: filepath.Join(t.TempDir(), "ck"),
			Every:      time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Report, want) {
			t.Fatalf("%d shards: campaign report differs from single-process:\n got %+v\nwant %+v",
				n, res.Report, want)
		}
		if res.Report.Format() != want.Format() {
			t.Fatalf("%d shards: formatted report differs", n)
		}
	}
}

// TestCampaignResumeFromReport: a cancelled campaign's report knows
// which sets ran; resuming the others completes it, and the merged
// report equals the full run.
func TestCampaignResumeFromReport(t *testing.T) {
	f := campaignFlow(t)
	const seed = 7
	c := &resil.Campaign{Flow: f, Runs: resil.RandomSets(f.Chip, 6, 2, seed), Seed: seed}
	full, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := c.Report(full)

	// Cancel after 2 runs.
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	c2 := *c
	c2.OnOutcome = func(resil.Outcome) {
		ran++
		if ran == 2 {
			cancel()
		}
	}
	outs, err := c2.Execute(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	partial := c.Report(outs)
	completed := map[int]bool{}
	for _, rec := range partial.Records {
		completed[rec.Index] = true
	}
	var missing []int
	for i := range c.Runs {
		if !completed[i] {
			missing = append(missing, i)
		}
	}
	if len(outs) != 2 || len(missing) != 4 {
		t.Fatalf("partial: %d outcomes, missing %v", len(outs), missing)
	}

	// Resume exactly the missing sets; merged report must equal the full.
	c3 := *c
	c3.Indices = missing
	rest, err := c3.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := resil.MergeReports(partial, c.Report(rest))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed report differs:\n got %+v\nwant %+v", got, want)
	}
}

package job

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/shard"
)

// testChip is the small generated chip every manager test runs against:
// cheap to Prepare, rich enough to shard.
func testChip() flowcmd.ChipSpec {
	return flowcmd.ChipSpec{Gen: &flowcmd.GenSpec{Seed: 7, Cores: 5}}
}

func testOptions(dir string) Options {
	return Options{
		Dir:      dir,
		Workers:  4,
		LeaseTTL: 5 * time.Second,
		Every:    time.Millisecond,
	}
}

func newManager(t *testing.T, o Options) *Manager {
	t.Helper()
	m, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func mustSubmit(t *testing.T, m *Manager, spec Spec) Record {
	t.Helper()
	rec, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rec.State != StateQueued {
		t.Fatalf("admission state = %q, want %q", rec.State, StateQueued)
	}
	return rec
}

func waitDone(t *testing.T, m *Manager, id string) Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rec, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	if rec.State != StateDone {
		t.Fatalf("job %s settled %q (error %q), want done", id, rec.State, rec.Error)
	}
	return rec
}

// directFlow prepares the test chip the way the manager does, for
// reference results computed outside the daemon path.
func directFlow(t *testing.T) *core.Flow {
	t.Helper()
	ch, opts, err := testChip().Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Prepare(ch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEvaluateJob runs the simplest job type end to end and holds the
// result text to the determinism invariant: same spec, same bytes.
func TestEvaluateJob(t *testing.T) {
	m := newManager(t, testOptions(t.TempDir()))
	spec := Spec{Type: TypeEvaluate, Chip: testChip()}
	first := waitDone(t, m, mustSubmit(t, m, spec).ID)
	if !strings.HasPrefix(first.Result, "chip ") || !strings.Contains(first.Result, "\ntat ") {
		t.Fatalf("unexpected evaluate result:\n%s", first.Result)
	}
	second := waitDone(t, m, mustSubmit(t, m, spec).ID)
	if first.Result != second.Result {
		t.Fatalf("same spec produced different results:\n%s\nvs\n%s", first.Result, second.Result)
	}
}

// TestCampaignJobMatchesDirect holds a sharded campaign job to the
// byte-identical-merge invariant: the daemon's report must equal the
// single-process shard.RunCampaign over the same seeded runs.
func TestCampaignJobMatchesDirect(t *testing.T) {
	const runs, setSize, seed = 12, 2, 13
	f := directFlow(t)
	c := &resil.Campaign{Flow: f, Runs: resil.RandomSets(f.Chip, runs, setSize, seed), Seed: seed}
	res, err := shard.RunCampaign(context.Background(), c, shard.Options{
		Shards: 1, Index: shard.All,
		Checkpoint: filepath.Join(t.TempDir(), "ref"),
		Every:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Report.Format()

	m := newManager(t, testOptions(t.TempDir()))
	rec := waitDone(t, m, mustSubmit(t, m, Spec{
		Type: TypeCampaign, Chip: testChip(),
		Shards: 3, Runs: runs, SetSize: setSize, Seed: seed,
	}).ID)
	if rec.Result != want {
		t.Fatalf("campaign job result differs from direct run:\n got:\n%s\nwant:\n%s", rec.Result, want)
	}
}

// TestExploreJobMatchesDirect does the same for explore jobs: the
// daemon's front must render byte-identically to a direct sharded run.
func TestExploreJobMatchesDirect(t *testing.T) {
	const maxPoints = 60
	f := directFlow(t)
	res, err := shard.RunExplore(context.Background(), f, shard.Options{
		Shards: 1, Index: shard.All,
		Checkpoint: filepath.Join(t.TempDir(), "ref"),
		Every:      time.Millisecond,
		MaxPoints:  maxPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := formatFront(res)

	m := newManager(t, testOptions(t.TempDir()))
	rec := waitDone(t, m, mustSubmit(t, m, Spec{
		Type: TypeExplore, Chip: testChip(),
		Shards: 2, MaxPoints: maxPoints,
	}).ID)
	if rec.Result != want {
		t.Fatalf("explore job result differs from direct run:\n got:\n%s\nwant:\n%s", rec.Result, want)
	}
	if !strings.HasPrefix(rec.Result, "Pareto front over ") {
		t.Fatalf("unexpected explore result:\n%s", rec.Result)
	}
}

// TestFullEvalKeyIgnored: the retired "full_eval" key, which journals
// and clients from before it was removed may still carry, decodes to the
// spec without it, and the explore job returns the same front.
func TestFullEvalKeyIgnored(t *testing.T) {
	const maxPoints = 60
	legacy, err := DecodeSpec([]byte(`{"type":"explore","chip":{"gen":{"seed":7,"cores":5}},"shards":2,"max_points":60,"full_eval":true}`))
	if err != nil {
		t.Fatalf("spec with full_eval rejected: %v", err)
	}
	plain := Spec{Type: TypeExplore, Chip: testChip(), Shards: 2, MaxPoints: maxPoints}
	if !reflect.DeepEqual(*legacy, plain) {
		t.Fatalf("decoded %+v, want %+v", *legacy, plain)
	}
	m := newManager(t, testOptions(t.TempDir()))
	got := waitDone(t, m, mustSubmit(t, m, *legacy).ID)
	want := waitDone(t, m, mustSubmit(t, m, plain).ID)
	if got.Result != want.Result {
		t.Fatalf("front with full_eval differs:\n got:\n%s\nwant:\n%s", got.Result, want.Result)
	}
}

// TestFailingShardMakesRetryAttempts: the pool is the daemon's only
// retrier. A shard whose every attempt fails is attempted exactly
// Attempts times before its job fails.
func TestFailingShardMakesRetryAttempts(t *testing.T) {
	o := testOptions(t.TempDir())
	o.Attempts = 3
	m := newManager(t, o)
	spec := Spec{Type: TypeExplore, Chip: testChip(), MaxPoints: 4}
	f, err := m.flow(spec.Chip)
	if err != nil {
		t.Fatal(err)
	}
	// Every evaluation of this flow fails: the forced mux names no port.
	f.ForcedMuxes = []core.ForcedMux{{Core: "nowhere", Port: "x", Input: true}}

	tr, _ := obs.Enable(0)
	defer obs.Disable()
	rec := mustSubmit(t, m, spec)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := m.Wait(ctx, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "forced mux on unknown port") {
		t.Fatalf("job settled %q with error %q; want failed on the forced mux", got.State, got.Error)
	}
	// Each attempt of an explore shard is one enumeration.
	attempts := 0
	for _, r := range tr.Records() {
		if r.Name == "explore/enumerate" {
			attempts++
		}
	}
	if attempts != o.Attempts {
		t.Fatalf("the failing shard made %d attempts, want Attempts = %d", attempts, o.Attempts)
	}
}

// closeAfterCheckpoint lets job id make real progress, then pulls the
// plug: it waits up to wait for at least one shard checkpoint frame to
// land and closes m.
func closeAfterCheckpoint(t *testing.T, m *Manager, dir, id string, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	prefix := filepath.Join(dir, "job-"+id)
	for {
		if files, _ := filepath.Glob(prefix + ".shard*"); len(files) > 0 {
			break
		}
		if done, _ := m.Get(id); done.State.Terminal() {
			break // finished before we could interrupt; recovery is vacuous but the bytes still must match
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared within %v", wait)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
}

// TestCrashRecoveryByteIdentical is the tentpole gate at the job layer:
// kill a manager mid-campaign (Close cancels everything in flight after
// checkpoints exist), reopen the same directory, and require the
// recovered job to finish with the exact bytes an uninterrupted manager
// produces.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	spec := Spec{
		Type: TypeCampaign, Chip: testChip(),
		Shards: 4, Runs: 24, SetSize: 2, Seed: 5,
	}

	clean := newManager(t, testOptions(t.TempDir()))
	want := waitDone(t, clean, mustSubmit(t, clean, spec).ID).Result

	dir := t.TempDir()
	m1, err := New(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := mustSubmit(t, m1, spec)
	closeAfterCheckpoint(t, m1, dir, rec.ID, time.Minute)

	after, ok := m1.Get(rec.ID)
	if !ok {
		t.Fatalf("job %s lost at shutdown", rec.ID)
	}
	if after.State.Terminal() && after.Result != want {
		t.Fatalf("job finished before interrupt with wrong bytes:\n%s", after.Result)
	}
	if !after.State.Terminal() {
		t.Logf("interrupted job %s in state %q", rec.ID, after.State)
	}

	m2 := newManager(t, testOptions(dir))
	got, ok := m2.Get(rec.ID)
	if !ok {
		t.Fatalf("job %s not recovered from journal", rec.ID)
	}
	if got.State.Terminal() && !after.State.Terminal() {
		// Recovered and not yet re-run to completion is also possible
		// here; Wait below settles it either way.
		t.Logf("job %s already terminal right after recovery", rec.ID)
	}
	final := waitDone(t, m2, rec.ID)
	if final.Result != want {
		t.Fatalf("recovered result differs from uninterrupted run:\n got:\n%s\nwant:\n%s", final.Result, want)
	}
}

// system1 is the paper's System 1: three logic cores whose test sets
// come from real ATPG, unlike the generated chips' fixed vector counts.
func system1() flowcmd.ChipSpec { return flowcmd.ChipSpec{System: 1} }

// storeCounts reports the test-set store hits and PODEM backtracks that
// metrics recorded.
func storeCounts(metrics *obs.Metrics) (hits, backtracks int64) {
	return metrics.Counter("atpg.store_hits").Value(), metrics.Counter("atpg.backtracks").Value()
}

// TestRestartReusesTestSets evaluates System 1, closes the manager and
// reopens it on the same directory: the second evaluation must print
// the same bytes while taking all three logic cores' test sets from the
// store, without a single PODEM backtrack.
func TestRestartReusesTestSets(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Type: TypeEvaluate, Chip: system1()}
	m1 := newManager(t, testOptions(dir))
	first := waitDone(t, m1, mustSubmit(t, m1, spec).ID)
	m1.Close()

	_, metrics := obs.Enable(0)
	defer obs.Disable()
	m2 := newManager(t, testOptions(dir))
	second := waitDone(t, m2, mustSubmit(t, m2, spec).ID)
	if second.Result != first.Result {
		t.Fatalf("result after restart differs:\n got:\n%s\nwant:\n%s", second.Result, first.Result)
	}
	if hits, backtracks := storeCounts(metrics); hits != 3 || backtracks != 0 {
		t.Fatalf("reopened manager: %d store hits, %d backtracks; want 3 and 0", hits, backtracks)
	}
}

// TestCrashRecoveryReusesTestSets kills a manager mid-campaign on System
// 1, whose prepare ran ATPG, and reopens it. The recovered job prepares
// from the store, and its shard checkpoints still resume: the flow
// fingerprint hashes each core's vector count, which a stored test set
// reproduces. The result must equal an uninterrupted run of the same
// spec.
func TestCrashRecoveryReusesTestSets(t *testing.T) {
	spec := Spec{
		Type: TypeCampaign, Chip: system1(),
		Shards: 4, Runs: 24, SetSize: 2, Seed: 5,
	}
	dir := t.TempDir()
	m1 := newManager(t, testOptions(dir))
	rec := mustSubmit(t, m1, spec)
	closeAfterCheckpoint(t, m1, dir, rec.ID, 3*time.Minute)

	_, metrics := obs.Enable(0)
	defer obs.Disable()
	m2 := newManager(t, testOptions(dir))
	got := waitDone(t, m2, rec.ID).Result
	t.Logf("resumed %d completed ranges from checkpoints", metrics.Counter("shard.resumed_ranges").Value())
	want := waitDone(t, m2, mustSubmit(t, m2, spec).ID).Result
	if got != want {
		t.Fatalf("recovered result differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
	if hits, backtracks := storeCounts(metrics); hits != 3 || backtracks != 0 {
		t.Fatalf("reopened manager: %d store hits, %d backtracks; want 3 and 0", hits, backtracks)
	}
}

// TestSubmitRejectsInvalidSpecs exercises admission-time validation.
func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	m := newManager(t, testOptions(t.TempDir()))
	for _, spec := range []Spec{
		{},
		{Type: "frobnicate", Chip: testChip()},
		{Type: TypeEvaluate},
		{Type: TypeCampaign, Chip: testChip()},
		{Type: TypeCampaign, Chip: testChip(), Runs: 4, Faults: "x"},
		{Type: TypeExplore, Chip: testChip(), Runs: 4},
		{Type: TypeEvaluate, Chip: testChip(), Shards: 2},
		{Type: TypeEvaluate, Chip: testChip(), Timeout: "yesterday"},
		{Type: TypeCampaign, Chip: testChip(), Runs: 4, Shards: MaxShards + 1},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("Submit accepted invalid spec %+v", spec)
		}
	}
	if m.Unfinished() != 0 {
		t.Fatalf("invalid submissions left %d unfinished jobs", m.Unfinished())
	}
}

// TestAdmissionControlErrBusy saturates the queue, requires the
// deterministic ErrBusy the API layer maps to 429, and requires every
// accepted job to still complete.
func TestAdmissionControlErrBusy(t *testing.T) {
	o := testOptions(t.TempDir())
	o.QueueLimit = 2
	m := newManager(t, o)
	// Jobs big enough that they cannot settle before the next Submit.
	var accepted []Record
	for i := int64(0); i < 2; i++ {
		accepted = append(accepted, mustSubmit(t, m, Spec{
			Type: TypeCampaign, Chip: testChip(),
			Shards: 2, Runs: 200, SetSize: 2, Seed: i,
		}))
	}
	if _, err := m.Submit(Spec{Type: TypeEvaluate, Chip: testChip()}); !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated Submit returned %v, want ErrBusy", err)
	}
	for _, rec := range accepted {
		waitDone(t, m, rec.ID)
	}
	// With the queue drained, admission opens again.
	if _, err := m.Submit(Spec{Type: TypeEvaluate, Chip: testChip()}); err != nil {
		t.Fatalf("post-drain Submit: %v", err)
	}
}

// TestDrainStopsAdmission drains an idle manager and requires new
// submissions to fail with ErrDraining.
func TestDrainStopsAdmission(t *testing.T) {
	m := newManager(t, testOptions(t.TempDir()))
	if err := m.Drain(context.Background()); err != nil {
		t.Fatalf("Drain of idle manager: %v", err)
	}
	if !m.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := m.Submit(Spec{Type: TypeEvaluate, Chip: testChip()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit returned %v, want ErrDraining", err)
	}
}

// TestDrainWaitsForJobs drains a busy manager and requires the in-flight
// job to settle terminally before Drain returns.
func TestDrainWaitsForJobs(t *testing.T) {
	m := newManager(t, testOptions(t.TempDir()))
	rec := mustSubmit(t, m, Spec{
		Type: TypeCampaign, Chip: testChip(),
		Shards: 2, Runs: 6, SetSize: 2, Seed: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	got, _ := m.Get(rec.ID)
	if got.State != StateDone {
		t.Fatalf("drained job state = %q (error %q), want done", got.State, got.Error)
	}
}

// TestCloseLeavesNoGoroutines is the leak gate: a manager that ran real
// jobs and was closed must not strand pool workers, pulse tickers, or
// job goroutines.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := New(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, mustSubmit(t, m, Spec{Type: TypeEvaluate, Chip: testChip()}).ID)
	m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

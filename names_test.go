// The metric-name registry gate. obs.Metrics is create-on-first-use, so
// a typo'd counter name silently forks a metric instead of failing; these
// tests pin every name to the canonical list in internal/obs/names.go,
// from both directions:
//
//   - statically: every obs.C("...")/obs.G("...") literal in non-test
//     source must be registered, and every registered name must still
//     have a call site (no stale registry entries);
//   - dynamically: a full flow — prepare, enumerate, improve, fault
//     campaign, differential replay, obs endpoint — must leave only
//     registered names in the metrics snapshot.
package repro_test

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/obs/progress"
	"repro/internal/proptest"
	"repro/internal/resil"
	"repro/internal/shard"
	"repro/internal/systems"
)

var metricCall = regexp.MustCompile(`obs\.(C|G)\("([^"]+)"\)`)

// TestMetricNamesRegistered scans every non-test source file for metric
// call sites and checks them against the registry, both ways.
func TestMetricNamesRegistered(t *testing.T) {
	counters := map[string]bool{}
	gauges := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricCall.FindAllStringSubmatch(string(src), -1) {
				kind, name := m[1], m[2]
				if !obs.Known(name) {
					t.Errorf("%s: obs.%s(%q) is not in the registry (internal/obs/names.go)", path, kind, name)
				}
				if kind == "C" {
					counters[name] = true
				} else {
					gauges[name] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range obs.KnownCounters {
		if !counters[n] {
			t.Errorf("registered counter %q has no obs.C call site left — remove it from internal/obs/names.go", n)
		}
	}
	for _, n := range obs.KnownGauges {
		if !gauges[n] {
			t.Errorf("registered gauge %q has no obs.G call site left — remove it from internal/obs/names.go", n)
		}
	}
}

// TestMetricSnapshotNamesRegistered runs the whole flow end to end with
// obs enabled and asserts the resulting snapshot contains only
// registered names — the dynamic complement of the static scan above.
func TestMetricSnapshotNamesRegistered(t *testing.T) {
	obs.Enable(0)
	t.Cleanup(obs.Disable)
	progress.Enable(-1)
	t.Cleanup(progress.Disable)

	ch := systems.System1()
	f, err := core.Prepare(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := explore.EnumerateCtx(context.Background(), f, explore.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := explore.ImproveCtx(context.Background(), f, explore.MinimizeTAT, 10_000, explore.Options{}); err != nil {
		t.Fatal(err)
	}

	e, err := f.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proptest.ReplayEvaluation(ch, e); err != nil {
		t.Fatal(err)
	}

	faults, err := resil.ParseFaults(ch, "slow:CPU")
	if err != nil {
		t.Fatal(err)
	}
	camp := &resil.Campaign{Flow: f, Runs: [][]resil.Fault{faults}}
	if _, err := camp.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A small sharded sweep with checkpointing, so the shard.* family
	// shows up in the snapshot.
	if _, err := shard.RunExplore(context.Background(), f, shard.Options{
		Shards: 2, Index: shard.All,
		Checkpoint: filepath.Join(t.TempDir(), "ck"),
		Every:      time.Millisecond, MaxPoints: 6,
	}); err != nil {
		t.Fatal(err)
	}

	srv, err := obshttp.Serve(context.Background(), "127.0.0.1:0", obshttp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	cs, gs := obs.M().TypedSnapshot()
	if len(cs) == 0 {
		t.Fatal("end-to-end flow recorded no counters")
	}
	for name := range cs {
		if !obs.Known(name) {
			t.Errorf("counter %q left by the flow is not in the registry", name)
		}
	}
	for name := range gs {
		if !obs.Known(name) {
			t.Errorf("gauge %q left by the flow is not in the registry", name)
		}
	}
	// Spot-check that the flow exercised each subsystem family the
	// registry documents, so the "only registered names" assertion is
	// checking a populated snapshot, not an empty one.
	for _, want := range []string{
		"atpg.vectors", "ccg.builds", "core.evaluations",
		"explore.points_evaluated", "explore.moves_proposed",
		"obshttp.requests", "proptest.paths_replayed",
		"resil.runs", "sched.cores_scheduled",
		"shard.checkpoints_written", "trans.versions_built",
	} {
		if cs[want] == 0 {
			t.Errorf("end-to-end flow never incremented %q", want)
		}
	}
}

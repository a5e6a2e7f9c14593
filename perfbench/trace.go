package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/ccg"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/obs"
	"repro/internal/sched"
)

// traceCap bounds the span ring of one traced call. The spans the tracer
// reads (prepare and its per-core stages) come early in a call and number
// a few thousand at most; the cap keeps them even in the largest job.
const traceCap = 1 << 17

// tracer times the calls a workload makes into each layer's public
// functions. Off, it just makes the calls. On, it gives every call a
// fresh obs registry and afterwards reads the spans and counters the
// program already records there; nothing is added inside the program.
type tracer struct {
	on bool
	m  map[string]float64
}

func newTracer(on bool) *tracer { return &tracer{on: on, m: map[string]float64{}} }

// call runs f, one public call into the program, adding its wall time to
// each named metric and harvesting the program's own spans and counters.
func (t *tracer) call(f func() error, metrics ...string) error {
	if !t.on {
		return f()
	}
	obs.Enable(traceCap)
	defer obs.Disable()
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	for _, m := range metrics {
		t.m[m] += d
	}
	t.harvest()
	return err
}

// timed runs f, which is not part of run_s (a correctness check), and
// records its wall time when tracing.
func (t *tracer) timed(metric string, f func() error) error {
	start := time.Now()
	err := f()
	if t.on {
		t.m[metric] += time.Since(start).Seconds()
	}
	return err
}

// probe runs f only when tracing, outside run_s, and records its time.
func (t *tracer) probe(metric string, f func() error) error {
	if !t.on {
		return nil
	}
	return t.timed(metric, f)
}

// add accumulates a count.
func (t *tracer) add(metric string, v float64) { t.m[metric] += v }

// spanLayers maps a phase of the spans the flow records (obs.Summarize
// groups "atpg/CPU" under "atpg") to the metrics it feeds: summed
// seconds, call count and slowest call.
var spanLayers = map[string]struct{ secs, calls, max string }{
	"prepare":  {"core.prepare_s", "", ""},
	"atpg":     {"atpg.s", "atpg.calls", "atpg.max_core_s"},
	"synth":    {"synth.s", "synth.calls", ""},
	"hscan":    {"hscan.s", "hscan.calls", ""},
	"versions": {"trans.s", "", ""},
}

// counterMetrics maps obs counters to the metrics they feed.
var counterMetrics = map[string]string{
	"atpg.backtracks":           "atpg.backtracks",
	"atpg.implications":         "atpg.implications",
	"atpg.aborted_faults":       "atpg.aborted_faults",
	"atpg.vectors":              "atpg.vectors",
	"trans.versions_built":      "trans.versions_built",
	"core.evaluations":          "core.evaluations",
	"core.delta_evaluations":    "core.delta_evaluations",
	"core.delta_fallbacks":      "core.delta_fallbacks",
	"core.degraded_evaluations": "core.degraded_evaluations",
	"ccg.searches":              "ccg.searches",
	"ccg.relaxations":           "ccg.relaxations",
	"ccg.reservation_conflicts": "ccg.reservation_conflicts",
	"sched.test_muxes_added":    "sched.test_muxes_added",
	"explore.cache_misses":      "explore.evaluations",
	"explore.cache_hits":        "explore.cache_hits",
	"explore.moves_accepted":    "explore.moves_accepted",
	"explore.moves_rejected":    "explore.moves_rejected",
	"serve.journal_writes":      "serve.journal_writes",
	"serve.leases_granted":      "serve.leases_granted",
	"serve.lease_retries":       "serve.lease_retries",
	"shard.checkpoints_written": "shard.checkpoints_written",
	"resil.runs":                "resil.runs",
	"resil.run_errors":          "resil.run_errors",
}

// harvest adds the installed registry's spans and counters.
func (t *tracer) harvest() {
	for _, st := range obs.Summarize(obs.T().Records()) {
		l, ok := spanLayers[st.Phase]
		if !ok {
			continue
		}
		t.m[l.secs] += st.Total.Seconds()
		if l.calls != "" {
			t.m[l.calls] += float64(st.Count)
		}
		if l.max != "" && st.Max.Seconds() > t.m[l.max] {
			t.m[l.max] = st.Max.Seconds()
		}
	}
	snap := obs.M().Snapshot()
	for name, m := range counterMetrics {
		t.m[m] += float64(snap[name])
	}
}

// probeFinal times, outside run_s, one call into each chip-level layer on
// the final selection of a prepared flow: a full evaluation, a delta
// evaluation of one single-core version flip, and the CCG build,
// schedule, interconnect schedule and controller generation it consists of.
func probeFinal(t *tracer, f *core.Flow, sel map[string]int) error {
	if !t.on {
		return nil
	}
	ctx := context.Background()
	if err := t.probe("core.evaluate_s", func() error {
		_, err := f.EvaluateSelectionCtx(ctx, sel)
		return err
	}); err != nil {
		return err
	}
	d := core.NewDeltaEvaluator(f)
	if _, err := d.EvaluateSelectionCtx(ctx, sel); err != nil {
		return err
	}
	if flip := singleFlip(f, sel); flip != nil {
		if err := t.probe("core.delta_eval_s", func() error {
			_, err := d.EvaluateSelectionCtx(ctx, flip)
			return err
		}); err != nil {
			return err
		}
	}
	var g *ccg.Graph
	var s *sched.Result
	steps := []struct {
		metric string
		f      func() error
	}{
		{"ccg.build_s", func() (err error) { g, err = ccg.BuildSelection(f.Chip, sel); return err }},
		{"sched.schedule_s", func() (err error) { s, err = sched.Schedule(f.Chip, g); return err }},
		{"sched.interconnect_s", func() error { _, err := sched.ScheduleInterconnect(f.Chip, g); return err }},
		{"ctrl.generate_s", func() error { ctrl.GenerateSelection(f.Chip, s, sel); return nil }},
	}
	for _, st := range steps {
		if err := t.probe(st.metric, st.f); err != nil {
			return fmt.Errorf("%s: %w", st.metric, err)
		}
	}
	return nil
}

// singleFlip returns sel with the first core (by name) that has a next
// version moved up one version, or nil when every core is at its top.
func singleFlip(f *core.Flow, sel map[string]int) map[string]int {
	var names []string
	for n := range sel {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c, ok := f.Chip.CoreByName(n)
		if !ok || sel[n]+1 >= len(c.Versions) {
			continue
		}
		flip := map[string]int{}
		for k, v := range sel {
			flip[k] = v
		}
		flip[n]++
		return flip
	}
	return nil
}

// treeHash fingerprints the Go sources under root (hidden directories,
// such as the build directory, are skipped), so a result names the exact
// code it measured even in a checkout without version control.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

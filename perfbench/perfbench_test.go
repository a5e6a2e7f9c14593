package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/system1-*.txt from a single-process run")

// maxUnattributed is the largest share of a traced run_s the workload's
// top-level layer times may leave unexplained.
const maxUnattributed = 0.05

// TestSystem1References recomputes the System 1 job results in a single
// process; socetd-mix compares the daemon's results against them.
func TestSystem1References(t *testing.T) {
	got, err := system1Results(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"testdata/system1-evaluate.txt", "testdata/system1-campaign.txt"}
	embedded := []string{system1Evaluate, system1Campaign}
	for i, name := range files {
		if *update {
			if err := os.WriteFile(name, []byte(got[i]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got[i] != embedded[i] {
			t.Errorf("%s is stale; run go test -run TestSystem1References -update\ngot:\n%s", name, got[i])
		}
	}
}

// tampered runs a workload but corrupts each iteration's output after
// the run, before the check.
type tampered struct {
	workload
	corrupt func(iteration)
}

func (w tampered) setup() (iteration, error) {
	it, err := w.workload.setup()
	if err != nil {
		return nil, err
	}
	return tamperedRun{it, w.corrupt}, nil
}

type tamperedRun struct {
	iteration
	corrupt func(iteration)
}

func (r tamperedRun) run(t *tracer) error {
	err := r.iteration.run(t)
	r.corrupt(r.iteration)
	return err
}

func smallConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 7, trace: trace, nproc: runtime.NumCPU(), out: t.TempDir()}
}

// TestTamperedOutputFails proves the correctness gate can fail: a walk
// whose final TAT is off by one is counted as a failed operation.
func TestTamperedOutputFails(t *testing.T) {
	w := genImprove{seed: genDefaultSeed, cores: 16}
	c := smallConfig(t, "gen256-improve", false)

	res, _, err := bench(c, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("untampered run: %+v", res)
	}

	bad := tampered{w, func(it iteration) {
		r := it.(*genRun)
		final := *r.walk.Final
		final.TAT++
		r.walk.Final = &final
	}}
	res, _, err = bench(c, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Failed < 1 {
		t.Fatalf("tampered run was not counted as failed: %+v", res)
	}
}

func TestStudyRowChecks(t *testing.T) {
	ref := referenceRows(study{seed: 1, cores: []int{8, 32, 128, 256}, widths: []int{1, 4, 16}})
	if len(ref) != 16 {
		t.Fatalf("%d reference rows, want 16", len(ref))
	}
	for _, row := range ref {
		if err := checkStudyRow(row, []int{1, 4, 16}); err != nil {
			t.Errorf("reference row fails the reference-free check: %v", err)
		}
	}
	for _, bad := range []string{
		strings.Replace(ref[0], "wrapW=16", "socet", 1),      // best names the wrong column
		strings.Replace(ref[0], "2380", "20", 1),             // a narrower TAM gets faster
		strings.Replace(ref[0], "1077", "0", 1),              // no SOCET TAT
		strings.Replace(ref[0], "| wrapW=16", "wrapW=16", 1), // malformed
	} {
		if err := checkStudyRow(bad, []int{1, 4, 16}); err == nil {
			t.Errorf("tampered row passed: %q", bad)
		}
	}
}

// TestLayerAccounting runs every workload traced and requires the
// top-level layer times to explain run_s, and the layer split each
// workload was chosen for.
func TestLayerAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			c := smallConfig(t, name, true)
			w, err := newWorkload(c)
			if err != nil {
				t.Fatal(err)
			}
			res, detail, err := bench(c, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("failures: %v", detail["failures"])
			}
			m := func(name string) float64 { return res.Metrics[name].Value }
			runS := median(detail["traced_run_s"].([]float64))
			if share := m("unattributed_s") / runS; share > maxUnattributed || share < -maxUnattributed {
				t.Errorf("layers leave %.1f%% of run_s (%.3fs) unexplained, limit %.0f%%", 100*share, runS, 100*maxUnattributed)
			}
			largest := ""
			for _, l := range w.layers() {
				if largest == "" || m(l) > m(largest) {
					largest = l
				}
			}
			t.Logf("run_s %.3f, largest layer %s %.3f, unattributed %.3f", runS, largest, m(largest), m("unattributed_s"))
			switch name {
			case "paper-s1":
				if share := m("atpg.s") / runS; share < 0.9 {
					t.Errorf("atpg is %.1f%% of paper-s1, want >= 90%%", 100*share)
				}
			case "study":
				if largest != "wrap.s" || m("atpg.calls") != 0 {
					t.Errorf("study: largest layer %s, %v ATPG calls; want wrap.s and none", largest, m("atpg.calls"))
				}
			case "gen256-improve":
				if largest != "explore.improve_s" || m("atpg.calls") != 0 {
					t.Errorf("gen256-improve: largest layer %s, %v ATPG calls; want explore.improve_s and none", largest, m("atpg.calls"))
				}
			case "socetd-mix":
				if m("atpg.calls") == 0 || m("serve.restart_result_s") == 0 {
					t.Errorf("socetd-mix: no ATPG or no restart measured")
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's metric and
// workload lists in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	same := func(kind string, json []struct{ Name, Unit string }, code []metric) {
		if len(json) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(json), len(code))
			return
		}
		for i := range code {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, code %s/%s", kind, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// Command perfbench is the repository benchmark. One invocation runs one
// workload — a run a user actually starts — for a fixed stretch of wall
// time, checks every output, and prints a JSON result as its last line:
//
//	perfbench --workload gen256-improve --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (tracing
// off); with --trace 1 it carries the per-layer metrics of a traced run.
// README.md lists the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Before the timed iterations a run builds its inputs a few extra times,
// so setup_s is a median over enough samples: at least minSetupReps
// times, and up to maxSetupReps while the builds take under setupBudget.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = time.Second
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	chipSeed uint64 // 0 = the workload's default chip seed
	seconds  float64
	trace    bool
	nproc    int
	out      string // directory for state and result files
}

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the --trace 0 metrics.
var endToEnd = []metric{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the --trace 1 metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metric{
	{"atpg.s", "s"}, {"atpg.max_core_s", "s"}, {"atpg.calls", "count"},
	{"atpg.backtracks", "count"}, {"atpg.implications", "count"},
	{"atpg.aborted_faults", "count"}, {"atpg.vectors", "count"},
	{"synth.s", "s"}, {"synth.calls", "count"},
	{"hscan.s", "s"}, {"hscan.calls", "count"},
	{"trans.s", "s"}, {"trans.versions_built", "count"},
	{"core.prepare_s", "s"}, {"core.flow_evaluate_s", "s"},
	{"core.evaluate_s", "s"}, {"core.delta_eval_s", "s"},
	{"core.evaluations", "count"}, {"core.delta_evaluations", "count"},
	{"core.delta_fallbacks", "count"}, {"core.degraded_evaluations", "count"},
	{"ccg.build_s", "s"}, {"sched.schedule_s", "s"},
	{"sched.interconnect_s", "s"}, {"ctrl.generate_s", "s"},
	{"ccg.searches", "count"}, {"ccg.relaxations", "count"},
	{"ccg.reservation_conflicts", "count"}, {"sched.test_muxes_added", "count"},
	{"explore.improve_s", "s"}, {"explore.evaluations", "count"},
	{"explore.cache_hits", "count"}, {"explore.moves_accepted", "count"},
	{"explore.moves_rejected", "count"}, {"explore.accept_ratio", "ratio"},
	{"wrap.s", "s"}, {"wrap.w16_s", "s"}, {"wrap.calls", "count"},
	{"testbus.s", "s"},
	{"fsim.recount_s", "s"},
	{"serve.submit_s", "s"}, {"serve.evaluate_job_s", "s"},
	{"serve.explore_job_s", "s"}, {"serve.campaign_job_s", "s"},
	{"serve.reopen_s", "s"}, {"serve.restart_result_s", "s"},
	{"serve.journal_bytes", "bytes"}, {"serve.journal_writes", "count"},
	{"serve.leases_granted", "count"}, {"serve.lease_retries", "count"},
	{"shard.checkpoints_written", "count"},
	{"resil.runs", "count"}, {"resil.run_errors", "count"},
	{"unattributed_s", "s"}, {"trace_overhead_frac", "frac"},
	{"fail_frac", "frac"},
}

// workload is one user-run job the benchmark times.
type workload interface {
	// setup builds the inputs of one iteration; it is timed as setup_s.
	setup() (iteration, error)
	// layers names the per-layer time metrics that partition run_s; the
	// rest of a traced run_s is reported as unattributed_s.
	layers() []string
	// workers records the worker counts the workload uses.
	workerCounts() map[string]int
}

// iteration is one prepared run of a workload.
type iteration interface {
	// run is the timed part.
	run(t *tracer) error
	// ops is how many operations (flow runs or jobs) run attempts.
	ops() int
	// check verifies the outputs of a successful run outside the timed
	// part and returns one message per failed operation.
	check(t *tracer) []string
	// close releases what setup acquired.
	close()
}

// sample is one timed iteration.
type sample struct {
	runS   float64
	layers map[string]float64
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var c config
	var trace int
	var root, gitRev string
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&c.seed, "seed", 1, "run seed; socetd-mix draws its generated-chip campaign from it")
	flag.Uint64Var(&c.chipSeed, "chip-seed", 0, "socgen seed of the generated chips (0 = workload default: study 1, gen256-improve and socetd-mix 1998)")
	flag.Float64Var(&c.seconds, "seconds", 10, "wall time to keep starting iterations for (at least one runs)")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.StringVar(&root, "root", ".", "source tree the benchmark was built from (hashed into the provenance)")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for daemon state and the full result file")
	flag.StringVar(&gitRev, "git-rev", "none", "git revision of the source tree, recorded in the provenance")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	c.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(c.nproc)

	w, err := newWorkload(c)
	if err != nil {
		fatalf("%v", err)
	}
	prov := map[string]any{
		"workload":    c.workload,
		"seed":        c.seed,
		"chip_seed":   c.chipSeed,
		"trace":       trace,
		"nproc":       c.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workers":     w.workerCounts(),
		"go":          runtime.Version(),
		"git_rev":     gitRev,
		"tree_sha256": treeHash(root),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	res, detail, err := bench(c, w)
	if err != nil {
		fatalf("%v", err)
	}
	detail["provenance"] = prov
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)
	if err := writeDetail(c, detail); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// bench runs the workload for c.seconds and assembles the result, plus a
// detail map (every sample) for the full result file.
func bench(c config, w workload) (*result, map[string]any, error) {
	var setups []float64
	begin := time.Now()
	for i := 0; i < minSetupReps || i < maxSetupReps && time.Since(begin) < setupBudget; i++ {
		it, d, err := timedSetup(w)
		if err != nil {
			return nil, nil, err
		}
		it.close()
		setups = append(setups, d)
	}

	var plain, traced []sample
	var rssMB float64
	attempted, failed := 0, 0
	var failures []string
	once := func(trace bool) error {
		it, d, err := timedSetup(w)
		if err != nil {
			return err
		}
		defer it.close()
		setups = append(setups, d)
		t := newTracer(trace)
		runtime.GC()
		start := time.Now()
		runErr := it.run(t)
		s := sample{runS: time.Since(start).Seconds(), layers: t.m}
		if rssMB == 0 {
			// The first iteration's peak, before any check allocates.
			rssMB = peakRSSMB()
		}
		attempted += it.ops()
		if runErr != nil {
			// A run that stopped early produced no checkable outputs.
			failed += it.ops()
			failures = append(failures, "run: "+runErr.Error())
		} else {
			fails := it.check(t)
			failed += min(len(fails), it.ops())
			failures = append(failures, fails...)
		}
		if trace {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		return nil
	}

	start := time.Now()
	for {
		unit := time.Now()
		if err := once(false); err != nil {
			return nil, nil, err
		}
		if c.trace {
			if err := once(true); err != nil {
				return nil, nil, err
			}
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+time.Since(unit).Seconds() > c.seconds {
			break
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	runTimes := runSeconds(plain)
	if !c.trace {
		vals := map[string]float64{
			"run_s":       median(runTimes),
			"setup_s":     median(setups),
			"peak_rss_mb": rssMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		vals := layerMedians(traced)
		var unattributed []float64
		for _, s := range traced {
			u := s.runS
			for _, l := range w.layers() {
				u -= s.layers[l]
			}
			unattributed = append(unattributed, u)
		}
		vals["unattributed_s"] = median(unattributed)
		vals["trace_overhead_frac"] = median(runSeconds(traced))/median(runTimes) - 1
		vals["fail_frac"] = float64(failed) / float64(attempted)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	detail := map[string]any{
		"result":        res,
		"setup_s":       setups,
		"run_s":         runTimes,
		"traced_run_s":  runSeconds(traced),
		"traced_layers": tracedLayers(traced),
		"failures":      failures,
		"layers":        w.layers(),
	}
	return res, detail, nil
}

func timedSetup(w workload) (iteration, float64, error) {
	runtime.GC()
	start := time.Now()
	it, err := w.setup()
	d := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return it, d, nil
}

func runSeconds(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.runS
	}
	return out
}

func tracedLayers(ss []sample) []map[string]float64 {
	out := make([]map[string]float64, len(ss))
	for i, s := range ss {
		out[i] = s.layers
	}
	return out
}

// layerMedians is the per-metric median over the traced samples; the
// accept ratio is derived from the medians of its two counts.
func layerMedians(ss []sample) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, s := range ss {
			xs = append(xs, s.layers[m.name])
		}
		vals[m.name] = median(xs)
	}
	if n := vals["explore.moves_accepted"] + vals["explore.moves_rejected"]; n > 0 {
		vals["explore.accept_ratio"] = vals["explore.moves_accepted"] / n
	}
	return vals
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeDetail stores the full result, with every sample and the
// provenance, under c.out/results.
func writeDetail(c config, detail map[string]any) error {
	dir := filepath.Join(c.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if c.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", c.workload, c.seed, mode)
	b, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/resil"
	"repro/internal/serve/api"
	"repro/internal/serve/job"
	"repro/internal/shard"
	"repro/internal/systems"
)

// The System 1 job results, as a single process computes them (see
// TestSystem1References): the evaluate job, and the campaign job with 24
// sets of 2 faults from seed 5.
var (
	//go:embed testdata/system1-evaluate.txt
	system1Evaluate string
	//go:embed testdata/system1-campaign.txt
	system1Campaign string
)

const (
	s1CampaignRuns = 24
	s1CampaignSeed = 5
	genCores       = 64
	genMaxPoints   = 400
	genRuns        = 8
	genFaults      = "opaque:C03"
	jobTimeout     = 10 * time.Minute
)

// socetdMix starts socetd in process and drives it over HTTP from one
// closed-loop client: each job is submitted after the previous result
// arrived. Midway the daemon drains, closes and reopens on its state
// directory, so the last job pays a restart.
type socetdMix struct {
	chipSeed     uint64
	campaignSeed int64
	workers      int
	dir          string // parent of the per-daemon state directories
	daemons      *int   // state directories made so far
}

// mixJob is one job of the mix: its spec and the metric its round trip
// feeds.
type mixJob struct {
	metric string
	spec   string
}

func (s socetdMix) gen() string {
	return fmt.Sprintf(`{"gen":{"seed":%d,"cores":%d,"topology":"dag"}}`, s.chipSeed, genCores)
}

// jobs lists the mix before the restart.
func (s socetdMix) jobs() []mixJob {
	return []mixJob{
		{"serve.evaluate_job_s", `{"type":"evaluate","chip":{"system":1}}`},
		{"serve.campaign_job_s", fmt.Sprintf(`{"type":"campaign","chip":{"system":1},"shards":4,"runs":%d,"set_size":2,"seed":%d}`, s1CampaignRuns, s1CampaignSeed)},
		{"serve.explore_job_s", fmt.Sprintf(`{"type":"explore","chip":%s,"shards":4,"max_points":%d}`, s.gen(), genMaxPoints)},
		{"serve.campaign_job_s", fmt.Sprintf(`{"type":"campaign","chip":%s,"shards":4,"runs":%d,"set_size":2,"seed":%d}`, s.gen(), genRuns, s.campaignSeed)},
		{"serve.evaluate_job_s", fmt.Sprintf(`{"type":"evaluate","chip":%s,"faults":%q}`, s.gen(), genFaults)},
	}
}

func (s socetdMix) setup() (iteration, error) {
	*s.daemons++
	dir := filepath.Join(s.dir, fmt.Sprintf("socetd-%d-%d", os.Getpid(), *s.daemons))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, s.workers)
	if err != nil {
		return nil, err
	}
	return &mixRun{w: s, dir: dir, d: d}, nil
}

func (socetdMix) layers() []string {
	return []string{"serve.evaluate_job_s", "serve.campaign_job_s", "serve.explore_job_s", "serve.reopen_s"}
}

func (s socetdMix) workerCounts() map[string]int {
	return map[string]int{"pool": s.workers, "explore_shard": s.workers}
}

type mixRun struct {
	w       socetdMix
	dir     string
	d       *daemon
	results []string
}

func (r *mixRun) ops() int { return len(r.w.jobs()) + 1 }

func (r *mixRun) close() {
	if r.d != nil {
		r.d.stop()
	}
	os.RemoveAll(r.dir)
}

func (r *mixRun) run(t *tracer) error {
	var submits []float64
	do := func(j mixJob, metrics ...string) error {
		return t.call(func() error {
			out, submit, err := r.d.do(j.spec)
			submits = append(submits, submit)
			r.results = append(r.results, out)
			return err
		}, append(metrics, j.metric)...)
	}
	for _, j := range r.w.jobs() {
		if err := do(j); err != nil {
			return err
		}
	}
	if err := t.call(func() error {
		err := r.d.stop()
		r.d = nil
		return err
	}, "serve.reopen_s"); err != nil {
		return err
	}
	if err := t.call(func() (err error) {
		r.d, err = startDaemon(r.dir, r.w.workers)
		return err
	}, "serve.reopen_s", "serve.restart_result_s"); err != nil {
		return err
	}
	if err := do(r.w.jobs()[0], "serve.restart_result_s"); err != nil {
		return err
	}
	t.m["serve.submit_s"] = median(submits)
	if st, err := os.Stat(filepath.Join(r.dir, "journal.ck")); err == nil {
		t.m["serve.journal_bytes"] = float64(st.Size())
	}
	return nil
}

// check requires every result to be byte-identical to the same work done
// in a single process, and the post-restart result to equal the first.
func (r *mixRun) check(*tracer) []string {
	want := []string{system1Evaluate, system1Campaign}
	gen, err := genResults(context.Background(), r.w.chipSeed, r.w.campaignSeed)
	if err != nil {
		return []string{"socetd-mix: single-process reference: " + err.Error()}
	}
	want = append(want, gen...)
	want = append(want, r.results[0])
	var fails []string
	for i, w := range want {
		if r.results[i] != w {
			fails = append(fails, fmt.Sprintf("socetd-mix: job %d result differs from the single-process result:\n%s\nwant:\n%s", i+1, r.results[i], w))
		}
	}
	return fails
}

// daemon is socetd in process: the job manager behind its HTTP API on a
// loopback port.
type daemon struct {
	m      *job.Manager
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func startDaemon(dir string, workers int) (*daemon, error) {
	m, err := job.New(job.Options{Dir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &daemon{
		m:      m,
		srv:    &http.Server{Handler: api.New(m, api.Options{})},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// stop drains the daemon gracefully and shuts its HTTP server down.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := d.m.Drain(ctx)
	d.client.CloseIdleConnections()
	serr := d.srv.Shutdown(ctx)
	<-d.served
	return errors.Join(derr, serr)
}

// do submits one job and waits for its result: a POST, then a GET that
// blocks until the job settles. It returns the result text and the
// POST round trip in seconds.
func (d *daemon) do(spec string) (string, float64, error) {
	start := time.Now()
	resp, err := d.client.Post(d.base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return "", 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	submit := time.Since(start).Seconds()
	if err != nil {
		return "", submit, err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", submit, fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var rec job.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return "", submit, fmt.Errorf("submit: %w", err)
	}
	resp, err = d.client.Get(fmt.Sprintf("%s/jobs/%s/result?wait=%s", d.base, rec.ID, jobTimeout))
	if err != nil {
		return "", submit, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", submit, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", submit, fmt.Errorf("job %s: %s: %s", rec.ID, resp.Status, body)
	}
	return string(body), submit, nil
}

// system1Results runs the System 1 jobs of the mix in this process.
func system1Results(ctx context.Context) ([]string, error) {
	f, err := core.Prepare(systems.System1(), nil)
	if err != nil {
		return nil, err
	}
	eval, err := evaluateText(ctx, f, "")
	if err != nil {
		return nil, err
	}
	camp, err := campaignText(ctx, f, s1CampaignRuns, s1CampaignSeed)
	if err != nil {
		return nil, err
	}
	return []string{eval, camp}, nil
}

// genResults runs the generated-chip jobs of the mix, in order, in this
// process: explore, campaign and the fault-injected evaluation.
func genResults(ctx context.Context, chipSeed uint64, campaignSeed int64) ([]string, error) {
	spec := flowcmd.ChipSpec{Gen: &flowcmd.GenSpec{Seed: chipSeed, Cores: genCores, Topology: "dag"}}
	ch, opts, err := spec.Build()
	if err != nil {
		return nil, err
	}
	f, err := core.Prepare(ch, opts)
	if err != nil {
		return nil, err
	}
	front, err := shard.RunExplore(ctx, f, shard.Options{Index: shard.All, MaxPoints: genMaxPoints})
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pareto front over %d selections\n", front.Total)
	for _, p := range front.Front {
		fmt.Fprintf(&sb, "%-40s %6d cells  %7d cycles\n", p.Label(), p.Cells, p.TAT)
	}
	camp, err := campaignText(ctx, f, genRuns, campaignSeed)
	if err != nil {
		return nil, err
	}
	eval, err := evaluateText(ctx, f, genFaults)
	if err != nil {
		return nil, err
	}
	return []string{sb.String(), camp, eval}, nil
}

func campaignText(ctx context.Context, f *core.Flow, runs int, seed int64) (string, error) {
	c := &resil.Campaign{Flow: f, Runs: resil.RandomSets(f.Chip, runs, 2, seed), Seed: seed}
	outs, err := c.Execute(ctx)
	if err != nil {
		return "", err
	}
	return c.Report(outs).Format(), nil
}

// evaluateText is the evaluate job's result text: the chip bottom line,
// plus the degradation report when faults are injected.
func evaluateText(ctx context.Context, f *core.Flow, faultSpec string) (string, error) {
	var (
		e   *core.Evaluation
		rep string
	)
	if faultSpec != "" {
		faults, err := resil.ParseFaults(f.Chip, faultSpec)
		if err != nil {
			return "", err
		}
		damaged, err := resil.Inject(f.Chip, faults...)
		if err != nil {
			return "", err
		}
		dev, err := f.Fork(damaged).EvaluateDegradedCtx(ctx)
		if err != nil {
			return "", err
		}
		e, rep = dev.Evaluation, dev.Report.Format()
	} else {
		var err error
		if e, err = f.EvaluateCtx(ctx); err != nil {
			return "", err
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "chip %s\n", f.Chip.Name)
	fmt.Fprintf(&sb, "trans_cells %d\n", e.TransCells)
	fmt.Fprintf(&sb, "mux_cells %d\n", e.MuxCells)
	fmt.Fprintf(&sb, "ctrl_cells %d\n", e.CtrlCells)
	fmt.Fprintf(&sb, "chip_dft_cells %d\n", e.ChipDFTCells())
	fmt.Fprintf(&sb, "tat %d\n", e.TAT)
	if e.BISTCycles > 0 {
		fmt.Fprintf(&sb, "bist_cycles %d\n", e.BISTCycles)
	}
	sb.WriteString(rep)
	return sb.String(), nil
}

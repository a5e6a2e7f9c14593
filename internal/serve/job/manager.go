package job

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/serve/pool"
	"repro/internal/shard"
)

// ErrBusy is returned by Submit when admission control refuses a job
// because the unfinished-job queue is full. The API layer maps it to a
// deterministic HTTP 429.
var ErrBusy = errors.New("job: queue full")

// ErrDraining is returned by Submit once a graceful drain has begun.
var ErrDraining = errors.New("job: draining, not accepting jobs")

// Options configures a Manager.
type Options struct {
	// Dir holds the journal, every job's shard checkpoints and, under
	// testsets/, the ATPG test-set store every prepared flow shares.
	Dir string
	// Workers bounds the lease pool (default GOMAXPROCS).
	Workers int
	// QueueLimit bounds unfinished (queued + running) jobs; submissions
	// beyond it get ErrBusy (default 8).
	QueueLimit int
	// LeaseTTL is the pool's heartbeat lease (default 30s).
	LeaseTTL time.Duration
	// Attempts caps how often the pool runs a failed or expired shard
	// unit (default 3). The pool is the only code that retries a shard:
	// a shard run makes one attempt, so a failing shard makes exactly
	// Attempts attempts.
	Attempts int
	// Timeout is the default per-job deadline (0 = none); a spec's own
	// timeout overrides it.
	Timeout time.Duration
	// Every overrides the shard checkpoint interval (default 5s);
	// tests shorten it so crash windows are tight.
	Every time.Duration
}

func (o Options) withDefaults() Options {
	if o.QueueLimit < 1 {
		o.QueueLimit = 8
	}
	return o
}

// flowEntry is one prepared flow shared by every job naming the same
// chip spec. Preparation runs once (sync.Once) even under concurrent
// jobs.
type flowEntry struct {
	once sync.Once
	flow *core.Flow
	err  error
}

type jobEntry struct {
	rec  Record
	done chan struct{}
}

// Manager admits, journals, runs and serves jobs.
type Manager struct {
	opts    Options
	pool    *pool.Pool
	ctx     context.Context
	cancel  context.CancelFunc
	closing sync.Once

	mu       sync.Mutex
	journal  *journal
	jobs     map[string]*jobEntry
	order    []string // submission order, for List and the journal
	seq      int
	draining bool
	running  sync.WaitGroup

	flowMu sync.Mutex
	flows  map[string]*flowEntry
}

// New opens (or creates) the journal in o.Dir, recovers any unfinished
// jobs it records, and starts accepting work. Recovered jobs re-run
// immediately; their shard checkpoints make the re-run incremental and
// their results byte-identical to an uninterrupted run.
func New(o Options) (*Manager, error) {
	o = o.withDefaults()
	if o.Dir == "" {
		return nil, fmt.Errorf("job: Options.Dir is required")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	j, st, err := openJournal(o.Dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:    o,
		pool:    pool.New(pool.Options{Workers: o.Workers, LeaseTTL: o.LeaseTTL, Attempts: o.Attempts}),
		ctx:     ctx,
		cancel:  cancel,
		journal: j,
		jobs:    map[string]*jobEntry{},
		flows:   map[string]*flowEntry{},
	}
	var recovered []*jobEntry
	if st != nil {
		m.seq = st.Seq
		for _, rec := range st.Jobs {
			e := &jobEntry{rec: rec, done: make(chan struct{})}
			if rec.State.Terminal() {
				close(e.done)
			} else {
				// Queued or running at the time of the crash: back to
				// queued, then re-run below.
				e.rec.State = StateQueued
				e.rec.Result, e.rec.Error = "", ""
				recovered = append(recovered, e)
			}
			m.jobs[rec.ID] = e
			m.order = append(m.order, rec.ID)
		}
	}
	if len(recovered) > 0 {
		obs.C("serve.jobs_recovered").Add(int64(len(recovered)))
		m.mu.Lock()
		m.persistLocked()
		m.mu.Unlock()
		for _, e := range recovered {
			m.running.Add(1)
			go m.run(e)
		}
	}
	return m, nil
}

// Submit validates and admits a job, journals it, and starts it. The
// returned record is the admission-time snapshot (state queued).
func (m *Manager) Submit(spec Spec) (Record, error) {
	if err := spec.Validate(); err != nil {
		obs.C("serve.jobs_rejected").Inc()
		return Record{}, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		obs.C("serve.jobs_rejected").Inc()
		return Record{}, ErrDraining
	}
	unfinished := 0
	for _, e := range m.jobs {
		if !e.rec.State.Terminal() {
			unfinished++
		}
	}
	if unfinished >= m.opts.QueueLimit {
		m.mu.Unlock()
		obs.C("serve.jobs_rejected").Inc()
		return Record{}, ErrBusy
	}
	m.seq++
	e := &jobEntry{
		rec:  Record{ID: fmt.Sprintf("j%d", m.seq), Spec: spec, State: StateQueued},
		done: make(chan struct{}),
	}
	m.jobs[e.rec.ID] = e
	m.order = append(m.order, e.rec.ID)
	m.persistLocked()
	rec := e.rec
	m.mu.Unlock()
	obs.C("serve.jobs_accepted").Inc()
	m.running.Add(1)
	go m.run(e)
	return rec, nil
}

// Get returns the named job's current record.
func (m *Manager) Get(id string) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok {
		return Record{}, false
	}
	return e.rec, true
}

// List returns every job in submission order.
func (m *Manager) List() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].rec)
	}
	return out
}

// Wait blocks until the named job settles (or ctx expires) and returns
// its final record.
func (m *Manager) Wait(ctx context.Context, id string) (Record, error) {
	m.mu.Lock()
	e, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Record{}, fmt.Errorf("job: unknown job %q", id)
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		return Record{}, ctx.Err()
	}
	rec, _ := m.Get(id)
	return rec, nil
}

// Unfinished counts queued and running jobs (the readiness signal).
func (m *Manager) Unfinished() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.jobs {
		if !e.rec.State.Terminal() {
			n++
		}
	}
	return n
}

// Draining reports whether a graceful drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops admission and waits for in-flight jobs to finish — or
// for ctx to expire, at which point remaining jobs are cancelled (they
// checkpoint what they have; a restart resumes them). Always closes
// the pool; returns ctx's error when the deadline cut the drain short.
func (m *Manager) Drain(ctx context.Context) error {
	obs.C("serve.drains").Inc()
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		m.running.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
	}
	m.close()
	return err
}

// Close cancels everything in flight and releases the pool. Jobs stop
// at their next context check, having checkpointed; the journal keeps
// them queued for the next start.
func (m *Manager) Close() { m.close() }

func (m *Manager) close() {
	m.closing.Do(func() {
		m.mu.Lock()
		m.draining = true
		m.mu.Unlock()
		m.cancel()
		m.running.Wait()
		m.pool.Close()
	})
}

// persistLocked writes the journal snapshot; callers hold m.mu. Journal
// write failures are recorded as a metric but do not fail the job —
// the daemon keeps serving from memory and the next write retries.
func (m *Manager) persistLocked() {
	st := &journalState{Seq: m.seq}
	for _, id := range m.order {
		st.Jobs = append(st.Jobs, m.jobs[id].rec)
	}
	if err := m.journal.write(st); err != nil {
		obs.C("serve.journal_write_errors").Inc()
	}
}

// setState transitions a job and journals the change.
func (m *Manager) setState(e *jobEntry, state State, result, errText string) {
	m.mu.Lock()
	e.rec.State = state
	e.rec.Result = result
	e.rec.Error = errText
	m.persistLocked()
	running := 0
	for _, j := range m.jobs {
		if j.rec.State == StateRunning {
			running++
		}
	}
	m.mu.Unlock()
	obs.G("serve.jobs_running").Set(int64(running))
}

// run executes one job to settlement.
func (m *Manager) run(e *jobEntry) {
	defer m.running.Done()
	defer close(e.done)
	m.setState(e, StateRunning, "", "")
	ctx := m.ctx
	if d := e.rec.Spec.timeout(m.opts.Timeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	result, err := m.execute(ctx, e.rec.ID, e.rec.Spec.withDefaults())
	if err != nil {
		if m.ctx.Err() != nil {
			// Manager shutdown, not a job failure: leave the record
			// non-terminal in the journal so the next start recovers and
			// re-runs it (incrementally, from its shard checkpoints).
			return
		}
		obs.C("serve.jobs_failed").Inc()
		m.setState(e, StateFailed, "", err.Error())
		return
	}
	obs.C("serve.jobs_completed").Inc()
	m.setState(e, StateDone, result, "")
}

// flow returns the shared prepared flow for a chip spec, preparing it at
// most once across all jobs. Preparation takes each core's test set from
// the store when an earlier flow, before or after a restart, already
// generated it.
func (m *Manager) flow(spec flowcmd.ChipSpec) (*core.Flow, error) {
	key := spec.Key()
	m.flowMu.Lock()
	fe, ok := m.flows[key]
	if !ok {
		fe = &flowEntry{}
		m.flows[key] = fe
	}
	m.flowMu.Unlock()
	fe.once.Do(func() {
		ch, opts, err := spec.Build()
		if err != nil {
			fe.err = err
			return
		}
		var o core.Options
		if opts != nil {
			o = *opts
		}
		o.TestSets = atpg.NewStore(filepath.Join(m.opts.Dir, "testsets"))
		fe.flow, fe.err = core.Prepare(ch, &o)
	})
	return fe.flow, fe.err
}

// checkpointPrefix is where a job's shard checkpoints live.
func (m *Manager) checkpointPrefix(id string) string {
	return filepath.Join(m.opts.Dir, "job-"+id)
}

// shardOptions assembles the per-unit shard options for one shard of a
// job: checkpointed, resumable, heartbeating into the unit's lease.
func (m *Manager) shardOptions(id string, spec Spec, index int, beat func()) shard.Options {
	return shard.Options{
		Shards:     spec.Shards,
		Index:      index,
		Checkpoint: m.checkpointPrefix(id),
		Resume:     true,
		Every:      m.opts.Every,
		MaxPoints:  spec.MaxPoints,
		OnProgress: beat,
	}
}

// execute dispatches one job. Campaign and explore jobs fan their
// shards out as pool units, then merge by resuming every checkpoint in
// this goroutine — the merge re-evaluates nothing and is byte-identical
// regardless of which worker ran which shard how many times.
func (m *Manager) execute(ctx context.Context, id string, spec Spec) (string, error) {
	f, err := m.flow(spec.Chip)
	if err != nil {
		return "", err
	}
	switch spec.Type {
	case TypeEvaluate:
		return m.runEvaluate(ctx, f, spec)
	case TypeCampaign:
		c := &resil.Campaign{
			Flow: f,
			Runs: resil.RandomSets(f.Chip, spec.Runs, spec.SetSize, spec.Seed),
			Seed: spec.Seed,
		}
		err := m.runUnits(ctx, id, spec, func(uctx context.Context, i int, beat func()) error {
			res, err := shard.RunCampaign(uctx, c, m.shardOptions(id, spec, i, beat))
			return unitErr(res == nil, err, res != nil && len(res.Incomplete) > 0)
		})
		if err != nil {
			return "", err
		}
		opts := m.shardOptions(id, spec, shard.All, nil)
		res, err := shard.RunCampaign(ctx, c, opts)
		if err != nil {
			return "", err
		}
		if len(res.Incomplete) > 0 {
			return "", fmt.Errorf("job: campaign incomplete: %d/%d runs", res.Done, res.Total)
		}
		m.removeCheckpoints(id, spec.Shards)
		return res.Report.Format(), nil
	case TypeExplore:
		err := m.runUnits(ctx, id, spec, func(uctx context.Context, i int, beat func()) error {
			res, err := shard.RunExplore(uctx, f, m.shardOptions(id, spec, i, beat))
			return unitErr(res == nil, err, res != nil && len(res.Incomplete) > 0)
		})
		if err != nil {
			return "", err
		}
		res, err := shard.RunExplore(ctx, f, m.shardOptions(id, spec, shard.All, nil))
		if err != nil {
			return "", err
		}
		if len(res.Incomplete) > 0 {
			return "", fmt.Errorf("job: explore incomplete: %d/%d selections", res.Done, res.Total)
		}
		m.removeCheckpoints(id, spec.Shards)
		return formatFront(res), nil
	}
	return "", fmt.Errorf("job: unknown type %q", spec.Type)
}

// runUnits fans one leased pool unit out per shard and collapses their
// results. Unit failures surface as the job's error after the pool has
// exhausted lease reassignment and backoff.
func (m *Manager) runUnits(ctx context.Context, id string, spec Spec, run func(ctx context.Context, i int, beat func()) error) error {
	units := make([]pool.Unit, spec.Shards)
	for i := range units {
		i := i
		units[i] = pool.Unit{
			ID:  fmt.Sprintf("%s/shard%d-of-%d", id, i, spec.Shards),
			Run: func(uctx context.Context, beat func()) error { return run(uctx, i, beat) },
		}
	}
	var errs []string
	for _, r := range m.pool.Do(ctx, units) {
		if r.Err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", r.ID, r.Err))
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return errors.New(strings.Join(errs, "; "))
	}
	return ctx.Err()
}

// unitErr normalizes a shard run outcome into a unit result: hard
// failures and incomplete windows both fail the unit so the lease layer
// retries it.
func unitErr(fatal bool, err error, incomplete bool) error {
	if err != nil {
		return err
	}
	if fatal {
		return errors.New("job: shard run produced no result")
	}
	if incomplete {
		return errors.New("job: shard window incomplete")
	}
	return nil
}

// removeCheckpoints deletes a finished job's shard checkpoints — the
// journal now carries the result, so the frames have nothing left to
// protect. Best-effort: a leftover file only costs disk.
func (m *Manager) removeCheckpoints(id string, shards int) {
	for i := 0; i < shards; i++ {
		os.Remove(shard.CheckpointPath(m.checkpointPrefix(id), i, shards))
	}
}

// runEvaluate runs a single (possibly fault-injected) evaluation. It
// executes as one pool unit with a liveness pulse: an evaluation has no
// natural progress stream, so the pulse keeps the lease alive and the
// job deadline is its real bound.
func (m *Manager) runEvaluate(ctx context.Context, f *core.Flow, spec Spec) (string, error) {
	var result string
	units := []pool.Unit{{
		ID: "evaluate",
		Run: func(uctx context.Context, beat func()) error {
			stop := pulse(beat, m.opts.LeaseTTL)
			defer stop()
			var err error
			result, err = evaluate(uctx, f, spec.Faults)
			return err
		},
	}}
	for _, r := range m.pool.Do(ctx, units) {
		if r.Err != nil {
			return "", r.Err
		}
	}
	return result, nil
}

// pulse beats a lease on a timer until stopped — liveness only, for
// units that cannot report granular progress.
func pulse(beat func(), ttl time.Duration) (stop func()) {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(ttl / 8)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				beat()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// evaluate is the evaluate-job body: deterministic text for the chip
// bottom line, plus the degradation report when faults are injected.
func evaluate(ctx context.Context, f *core.Flow, faultSpec string) (string, error) {
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
		e = dev.Evaluation
		rep = dev.Report.Format()
	} else {
		var err error
		e, err = f.EvaluateCtx(ctx)
		if err != nil {
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

// formatFront renders an explore result exactly as cmd/tradeoff's
// sharded path prints its front, so daemon results diff cleanly against
// CLI runs.
func formatFront(res *shard.ExploreResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pareto front over %d selections\n", res.Total)
	for _, p := range res.Front {
		fmt.Fprintf(&sb, "%-40s %6d cells  %7d cycles\n", p.Label(), p.Cells, p.TAT)
	}
	return sb.String()
}

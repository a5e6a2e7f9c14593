package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/resil"
)

// attemptHook, when non-nil, is consulted at the start of every shard
// attempt; a non-nil return is treated as that attempt failing. It exists
// so tests can inject transient shard faults without manufacturing real
// evaluation panics.
var attemptHook func(kind string, shard, attempt int) error

// shardRun is the mutable state of one shard while (re)running: the
// completed-index set split into checkpoint-loaded prior ranges and
// fresh this-process indices, the accumulating partial result, and the
// throttled checkpoint writer.
type shardRun struct {
	kind   string
	idx    int
	window Range
	every  time.Duration

	state State // identity fields, reused for every frame

	beat func() // optional lease heartbeat, from Options.OnProgress

	mu        sync.Mutex
	prior     []Range // sorted disjoint, from the loaded checkpoint
	fresh     map[int64]struct{}
	pts       []FrontPoint              // explore: completed points, periodically canonicalized
	recs      map[int64]resil.RunRecord // campaign: completed run records
	w         *writer
	lastFlush time.Time
	prog      *progress.Task
}

// newShardRun builds shard idx's run state, loading and validating its
// checkpoint when resuming. An incompatible checkpoint (different chip,
// workload, partitioning or work total) is a loud error; a corrupt one
// has already been degraded to its newest good frame — or to nothing —
// by Load.
func newShardRun(o Options, kind string, fingerprint uint64, idx int, window Range, total int64) (*shardRun, error) {
	s := &shardRun{
		kind:   kind,
		idx:    idx,
		window: window,
		every:  o.Every,
		beat:   o.OnProgress,
		fresh:  map[int64]struct{}{},
		recs:   map[int64]resil.RunRecord{},
		state: State{
			Schema:      StateSchema,
			Kind:        kind,
			Fingerprint: fingerprint,
			Shards:      o.Shards,
			Shard:       idx,
			Total:       total,
			Window:      window,
		},
	}
	path := CheckpointPath(o.Checkpoint, idx, o.Shards)
	if path != "" {
		s.w = &writer{path: path}
	}
	if path == "" || !o.Resume {
		return s, nil
	}
	st, err := Load(path)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return s, nil // fresh start: no file, or nothing salvageable
	}
	if st.Kind != kind || st.Fingerprint != fingerprint || st.Shards != o.Shards ||
		st.Shard != idx || st.Total != total {
		return nil, fmt.Errorf("shard: checkpoint %s holds %s shard %d/%d over fingerprint %016x (total %d); refusing to resume %s shard %d/%d over %016x (total %d)",
			path, st.Kind, st.Shard, st.Shards, st.Fingerprint, st.Total,
			kind, idx, o.Shards, fingerprint, total)
	}
	s.prior = normalize(st.Done)
	s.pts = append(s.pts, st.Front...)
	for _, rec := range st.Records {
		s.recs[int64(rec.Index)] = rec
	}
	if len(s.prior) > 0 {
		obs.C("shard.resumed_ranges").Add(int64(len(s.prior)))
	}
	if err := s.w.seed(st); err != nil {
		return nil, err
	}
	return s, nil
}

// skip reports whether global index gi is already done (prior checkpoint
// or this process). Safe for concurrent use from evaluation workers.
func (s *shardRun) skip(gi int) bool {
	i := int64(gi)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.fresh[i]; ok {
		return true
	}
	return inRanges(s.prior, i)
}

// observePoint records one completed design point and checkpoints when
// the throttle interval has passed. Called concurrently from workers.
func (s *shardRun) observePoint(gi int, p explore.Point) {
	s.mu.Lock()
	if _, ok := s.fresh[int64(gi)]; !ok && !inRanges(s.prior, int64(gi)) {
		s.fresh[int64(gi)] = struct{}{}
		s.pts = append(s.pts, FromPoint(p))
		// Keep the buffer a front plus a bounded tail, so checkpoint
		// frames stay O(front), not O(points completed).
		if len(s.pts) > 256 {
			s.pts = CanonFront(s.pts)
		}
		s.prog.Step(1)
	}
	s.maybeFlushLocked()
	s.mu.Unlock()
	if s.beat != nil {
		s.beat()
	}
}

// observeOutcome records one completed campaign run. Campaign execution
// is sequential per shard, but the same locking keeps the flush path
// uniform.
func (s *shardRun) observeOutcome(rec resil.RunRecord) {
	s.mu.Lock()
	i := int64(rec.Index)
	if _, ok := s.recs[i]; !ok {
		s.recs[i] = rec
		s.fresh[i] = struct{}{}
		s.prog.Step(1)
	}
	s.maybeFlushLocked()
	s.mu.Unlock()
	if s.beat != nil {
		s.beat()
	}
}

// maybeFlushLocked writes a periodic checkpoint when due. Errors are
// swallowed deliberately: a failed periodic write costs recoverable
// progress, not correctness, and the final flush reports its error.
func (s *shardRun) maybeFlushLocked() {
	if s.w == nil || time.Since(s.lastFlush) < s.every {
		return
	}
	s.lastFlush = time.Now()
	_ = s.flushLocked()
}

// flushLocked assembles the current state into a frame and persists it.
func (s *shardRun) flushLocked() error {
	if s.w == nil {
		return nil
	}
	st := s.state
	st.Done = coalesce(s.fresh, s.prior)
	if s.kind == "explore" {
		s.pts = CanonFront(s.pts)
		st.Front = s.pts
	} else {
		st.Records = s.records()
	}
	return s.w.write(&st)
}

// finalFlush persists the shard's terminal state (always written, even on
// failure, so the next resume starts from everything that completed).
func (s *shardRun) finalFlush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// records lists the completed run records in index order (caller holds mu).
func (s *shardRun) records() []resil.RunRecord {
	idx := make([]int64, 0, len(s.recs))
	for i := range s.recs {
		idx = append(idx, i)
	}
	sortInt64s(idx)
	out := make([]resil.RunRecord, 0, len(idx))
	for _, i := range idx {
		out = append(out, s.recs[i])
	}
	return out
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// doneRanges returns the completed indices as sorted disjoint ranges.
func (s *shardRun) doneRanges() []Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	return coalesce(s.fresh, s.prior)
}

// front returns the canonical partial front over the completed points.
func (s *shardRun) front() []FrontPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pts = CanonFront(s.pts)
	return s.pts
}

// retryLoop runs once (an attempt of the shard's workload) under the
// retry policy: context errors pass through untouched, other failures
// back off and retry until the attempt budget is spent. Completed work
// survives across attempts — the skip set makes retries incremental.
func (s *shardRun) retryLoop(ctx context.Context, r Retry, once func(attempt int) error) error {
	for attempt := 1; ; attempt++ {
		err := once(attempt)
		if err == nil || ctx.Err() != nil {
			return err
		}
		if attempt >= r.Attempts {
			if attempt > 1 {
				err = fmt.Errorf("giving up after %d attempts: %w", attempt, err)
			}
			return fmt.Errorf("shard %d (%s): %w", s.idx, s.kind, err)
		}
		obs.C("shard.retries").Inc()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(r.backoff(attempt)):
		}
	}
}

// ExploreResult is the outcome of a sharded design-space sweep: the
// canonical (partial) Pareto front of every completed point, the global
// work accounting, and — when the run degraded — exactly which index
// ranges never completed.
type ExploreResult struct {
	Front      []FrontPoint
	Total      int64
	Done       int64
	Incomplete []Range
}

// RunExplore runs the selected shards of a sharded enumeration over f and
// merges their fronts. With Options.Index == All and complete checkpoints
// this is a pure merge: every shard resumes, finds nothing missing, and
// contributes its checkpointed front. On error the returned result still
// carries everything that completed, with the unfinished ranges
// attributed in Incomplete.
func RunExplore(ctx context.Context, f *core.Flow, o Options) (*ExploreResult, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	total := int64(explore.SelectionSpace(f, o.MaxPoints))
	plan := Plan(total, o.Shards)
	ev := o.Cache
	if ev == nil {
		ev = core.NewDeltaEvaluator(f)
	} else if ev.Flow() != f {
		return nil, fmt.Errorf("shard: the evaluator is bound to another flow (chip %q) than the explored one (chip %q)",
			ev.Flow().Chip.Name, f.Chip.Name)
	}
	res := &ExploreResult{Total: total}
	var fronts [][]FrontPoint
	var firstErr error
	for i, win := range plan {
		if o.Index != All && i != o.Index {
			continue
		}
		if ctx.Err() != nil && firstErr != nil {
			res.Incomplete = append(res.Incomplete, win)
			continue
		}
		s, err := newShardRun(o, "explore", f.Fingerprint(), i, win, total)
		if err != nil {
			return nil, err
		}
		err = s.runExplore(ctx, f, o, ev)
		fronts = append(fronts, s.front())
		done := s.doneRanges()
		res.Done += countRanges(done)
		res.Incomplete = append(res.Incomplete, subtract(win, done)...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	res.Front = MergeFronts(fronts...)
	res.Incomplete = normalize(res.Incomplete)
	return res, firstErr
}

// runExplore drives one shard's enumeration window under the retry
// policy, checkpointing along the way and once more at the end.
func (s *shardRun) runExplore(ctx context.Context, f *core.Flow, o Options, ev *core.DeltaEvaluator) error {
	s.prog = progress.Start(fmt.Sprintf("shard/explore[%d/%d]", s.idx, s.state.Shards), s.window.Len(),
		"shard.checkpoints_written", "shard.retries")
	defer s.prog.End()
	s.mu.Lock()
	s.prog.Step(countRanges(s.prior))
	s.lastFlush = time.Now()
	s.mu.Unlock()
	err := s.retryLoop(ctx, o.Retry, func(attempt int) error {
		if attemptHook != nil {
			if err := attemptHook(s.kind, s.idx, attempt); err != nil {
				return err
			}
		}
		_, err := explore.EnumerateCtx(ctx, f, explore.Options{
			Workers:   o.Workers,
			Cache:     ev,
			MaxPoints: o.MaxPoints,
			First:     int(s.window.Lo),
			Count:     int(s.window.Len()),
			Skip:      s.skip,
			Observer:  s.observePoint,
		})
		return err
	})
	if ferr := s.finalFlush(); err == nil {
		err = ferr
	}
	return err
}

// CampaignResult is the outcome of a sharded fault campaign: the merged
// report over every completed run record, plus the unfinished set indices.
type CampaignResult struct {
	Report     *resil.Report
	Total      int64
	Done       int64
	Incomplete []Range
}

// RunCampaign runs the selected shards of a sharded fault campaign over c
// and merges their reports. The semantics mirror RunExplore: resume skips
// checkpointed runs, retries absorb transient failures, and the merged
// report is bit-identical to c.Report over a single-process Execute.
func RunCampaign(ctx context.Context, c *resil.Campaign, o Options) (*CampaignResult, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	total := int64(len(c.Runs))
	plan := Plan(total, o.Shards)
	res := &CampaignResult{Total: total}
	var recs []resil.RunRecord
	var firstErr error
	for i, win := range plan {
		if o.Index != All && i != o.Index {
			continue
		}
		if ctx.Err() != nil && firstErr != nil {
			res.Incomplete = append(res.Incomplete, win)
			continue
		}
		s, err := newShardRun(o, "campaign", c.Flow.Fingerprint(), i, win, total)
		if err != nil {
			return nil, err
		}
		err = s.runCampaign(ctx, c, o)
		s.mu.Lock()
		recs = append(recs, s.records()...)
		s.mu.Unlock()
		done := s.doneRanges()
		res.Done += countRanges(done)
		res.Incomplete = append(res.Incomplete, subtract(win, done)...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	report := &resil.Report{Chip: c.Flow.Chip.Name, Seed: c.Seed, Total: int(total)}
	report.Records = append(report.Records, recs...)
	res.Report = resil.MergeReports(report)
	res.Incomplete = normalize(res.Incomplete)
	return res, firstErr
}

// runCampaign drives one shard's slice of the campaign under the retry
// policy. Each attempt executes only the window's still-missing indices.
func (s *shardRun) runCampaign(ctx context.Context, c *resil.Campaign, o Options) error {
	s.prog = progress.Start(fmt.Sprintf("shard/campaign[%d/%d]", s.idx, s.state.Shards), s.window.Len(),
		"shard.checkpoints_written", "shard.retries")
	defer s.prog.End()
	s.mu.Lock()
	s.prog.Step(countRanges(s.prior))
	s.lastFlush = time.Now()
	s.mu.Unlock()
	err := s.retryLoop(ctx, o.Retry, func(attempt int) error {
		if attemptHook != nil {
			if err := attemptHook(s.kind, s.idx, attempt); err != nil {
				return err
			}
		}
		var pending []int
		for gi := s.window.Lo; gi < s.window.Hi; gi++ {
			if !s.skip(int(gi)) {
				pending = append(pending, int(gi))
			}
		}
		if len(pending) == 0 {
			return nil
		}
		sub := *c
		sub.Indices = pending
		sub.OnOutcome = func(out resil.Outcome) { s.observeOutcome(c.Record(out)) }
		_, err := sub.Execute(ctx)
		return err
	})
	if ferr := s.finalFlush(); err == nil {
		err = ferr
	}
	return err
}

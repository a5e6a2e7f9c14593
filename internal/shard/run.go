package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/resil"
)

// shardRun is the mutable state of one shard while running: the
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

// skip reports whether the loaded checkpoint already covers global index
// gi. prior is fixed once the shard starts, so evaluation workers may
// call skip concurrently without the lock.
func (s *shardRun) skip(gi int) bool {
	return inRanges(s.prior, int64(gi))
}

// observePoint records one completed design point and checkpoints when
// the throttle interval has passed. Called concurrently from workers.
func (s *shardRun) observePoint(gi int, p explore.Point) {
	s.observe(func() {
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
	})
}

// observeOutcome records one completed campaign run. Campaign execution
// is sequential per shard, but the same locking keeps the flush path
// uniform.
func (s *shardRun) observeOutcome(rec resil.RunRecord) {
	s.observe(func() {
		i := int64(rec.Index)
		if _, ok := s.recs[i]; !ok {
			s.recs[i] = rec
			s.fresh[i] = struct{}{}
			s.prog.Step(1)
		}
	})
}

// observe runs record under the lock, checkpoints when the throttle
// interval has passed, and beats the lease.
func (s *shardRun) observe(record func()) {
	s.mu.Lock()
	record()
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

// records lists the completed run records in index order (caller holds mu).
func (s *shardRun) records() []resil.RunRecord {
	idx := make([]int64, 0, len(s.recs))
	for i := range s.recs {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	out := make([]resil.RunRecord, 0, len(idx))
	for _, i := range idx {
		out = append(out, s.recs[i])
	}
	return out
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

// run works through the shard's window under its progress task, then
// checkpoints the terminal state — always, even on failure, so the next
// resume starts from everything that completed — and attributes the
// failure: context errors pass through untouched, any other error gets
// the shard's name. The shard runs its window once; evaluations are
// deterministic, so running it again would fail the same way.
func (s *shardRun) run(ctx context.Context, work func(s *shardRun) error) error {
	s.prog = progress.Start(fmt.Sprintf("shard/%s[%d/%d]", s.kind, s.idx, s.state.Shards), s.window.Len(),
		"shard.checkpoints_written")
	defer s.prog.End()
	s.mu.Lock()
	s.prog.Step(countRanges(s.prior))
	s.lastFlush = time.Now()
	s.mu.Unlock()
	err := work(s)
	if err != nil && ctx.Err() == nil {
		err = fmt.Errorf("shard %d (%s): %w", s.idx, s.kind, err)
	}
	s.mu.Lock()
	ferr := s.flushLocked()
	s.mu.Unlock()
	if err == nil {
		err = ferr
	}
	return err
}

// tally is what runShards accounts over the shards it ran: how many
// indices completed and which ranges did not.
type tally struct {
	done       int64
	incomplete []Range
}

// runShards is the one loop over a sharded run's plan, shared by
// RunExplore and RunCampaign: it runs every shard o selects of the
// kind's total work items through work, which processes the shard's
// window and takes its partial result, and tallies what completed. A
// shard whose checkpoint cannot be resumed refuses the whole run (nil
// tally); a shard whose work fails degrades it, and the first such
// error is returned with the tally of everything that completed.
func runShards(ctx context.Context, o Options, kind string, fingerprint uint64, total int64, work func(s *shardRun) error) (*tally, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := &tally{}
	var firstErr error
	for i, win := range Plan(total, o.Shards) {
		if o.Index != All && i != o.Index {
			continue
		}
		s, err := newShardRun(o, kind, fingerprint, i, win, total)
		if err != nil {
			return nil, err
		}
		err = s.run(ctx, work)
		done := s.doneRanges()
		t.done += countRanges(done)
		t.incomplete = append(t.incomplete, subtract(win, done)...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.incomplete = normalize(t.incomplete)
	return t, firstErr
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
	total := int64(explore.SelectionSpace(f, o.MaxPoints))
	var fronts [][]FrontPoint
	t, err := runShards(ctx, o, "explore", f.Fingerprint(), total, func(s *shardRun) error {
		_, err := explore.EnumerateCtx(ctx, f, explore.Options{
			Workers:   o.Workers,
			MaxPoints: o.MaxPoints,
			First:     int(s.window.Lo),
			Count:     int(s.window.Len()),
			Skip:      s.skip,
			Observer:  s.observePoint,
		})
		fronts = append(fronts, s.front())
		return err
	})
	if t == nil {
		return nil, err
	}
	return &ExploreResult{Front: MergeFronts(fronts...), Total: total, Done: t.done, Incomplete: t.incomplete}, err
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
// checkpointed runs, a failed shard degrades the result to what
// completed, and the merged report is bit-identical to c.Report over a
// single-process Execute.
func RunCampaign(ctx context.Context, c *resil.Campaign, o Options) (*CampaignResult, error) {
	total := int64(len(c.Runs))
	report := &resil.Report{Chip: c.Flow.Chip.Name, Seed: c.Seed, Total: int(total)}
	t, err := runShards(ctx, o, "campaign", c.Flow.Fingerprint(), total, func(s *shardRun) error {
		var pending []int
		for gi := s.window.Lo; gi < s.window.Hi; gi++ {
			if !s.skip(int(gi)) {
				pending = append(pending, int(gi))
			}
		}
		var err error
		if len(pending) > 0 {
			sub := *c
			sub.Indices = pending
			sub.OnOutcome = func(out resil.Outcome) { s.observeOutcome(c.Record(out)) }
			_, err = sub.Execute(ctx)
		}
		s.mu.Lock()
		report.Records = append(report.Records, s.records()...)
		s.mu.Unlock()
		return err
	})
	if t == nil {
		return nil, err
	}
	return &CampaignResult{Report: resil.MergeReports(report), Total: total, Done: t.done, Incomplete: t.incomplete}, err
}

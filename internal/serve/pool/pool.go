// Package pool is socetd's lease-based work coordinator: a bounded set
// of workers executing retryable work units under heartbeat leases.
//
// A unit (for socetd, one shard of a job) is leased to a worker; while
// it runs it must call its heartbeat. A unit silent past the lease TTL
// is presumed dead: its lease is reclaimed, the attempt's context is
// cancelled, the worker slot is freed and the unit is reassigned after
// a capped exponential backoff (Retry.Backoff). A unit that fails is
// retried the same way. The pool is the only code that retries a shard:
// a shard run makes one attempt. Because every unit the daemon runs
// checkpoints its progress and merges deterministically, reassignment —
// even when the presumed-dead attempt is actually alive and later
// finishes — costs at most duplicated work, never a wrong result; the
// unit settles exactly once, first terminal outcome wins.
//
// Worker panics are confined to the attempt that raised them: the
// attempt fails, the backoff/retry path takes over, and the pool keeps
// serving other units. Close drains: workers finish or settle what is
// queued and every goroutine the pool started exits.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Unit is one leasable piece of work. Run must return promptly after
// ctx is cancelled (the lease reclaim path relies on it) and should
// call beat at least once per lease TTL while making progress.
type Unit struct {
	ID  string
	Run func(ctx context.Context, beat func()) error
}

// Result is a settled unit: its terminal error (nil on success) and how
// many attempts it consumed.
type Result struct {
	ID       string
	Err      error
	Attempts int
}

// Retry caps how the pool handles failed or expired attempts: up to
// Attempts tries with exponential backoff from Base, capped at Max.
// Context cancellation is never retried — a deadline is a decision, not
// a fault.
type Retry struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
}

func (r Retry) withDefaults() Retry {
	if r.Attempts < 1 {
		r.Attempts = 3
	}
	if r.Base <= 0 {
		r.Base = 100 * time.Millisecond
	}
	if r.Max <= 0 {
		r.Max = 5 * time.Second
	}
	return r
}

// Backoff is the deterministic delay before retry attempt n (n >= 1):
// Base doubling per attempt, capped at Max.
func (r Retry) Backoff(attempt int) time.Duration {
	return r.withDefaults().backoff(attempt)
}

// backoff is the deterministic delay before retry attempt n (n >= 1).
func (r Retry) backoff(attempt int) time.Duration {
	d := r.Base
	for i := 1; i < attempt && d < r.Max; i++ {
		d *= 2
	}
	if d > r.Max {
		d = r.Max
	}
	return d
}

// Options configures a Pool. The zero value is usable: GOMAXPROCS
// workers, a 30s lease TTL, and the default retry policy.
type Options struct {
	// Workers bounds concurrently leased units.
	Workers int
	// LeaseTTL is how long a unit may go without a heartbeat before its
	// lease is reclaimed and the unit reassigned.
	LeaseTTL time.Duration
	// Retry sets attempt count and reassignment backoff. A unit that
	// fails or expires Retry.Attempts times settles with its last error.
	Retry Retry
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// task is one queued attempt instance of a unit.
type task struct {
	unit    Unit
	attempt int // 1-based attempt number this instance will run as
	group   *group
	index   int // position in the group's unit order
}

// group tracks one Do call: settlement state for its units.
type group struct {
	ctx        context.Context
	mu         sync.Mutex
	results    []Result
	settled    []bool
	gen        []int // current attempt generation per unit; stale instances are ignored
	remaining  int
	done       chan struct{}
	doneClosed bool
}

// closeDone closes the completion channel exactly once; callers hold mu.
func (g *group) closeDone() {
	if !g.doneClosed {
		g.doneClosed = true
		close(g.done)
	}
}

// settle records a terminal outcome for unit index i exactly once.
func (g *group) settle(i int, r Result) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.settled[i] {
		return
	}
	g.settled[i] = true
	g.results[i] = r
	g.remaining--
	if g.remaining == 0 {
		g.closeDone()
	}
}

func (g *group) isSettled(i int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.settled[i]
}

// advance moves unit i's generation from attempt to attempt+1 and
// reports whether this instance was current (a stale instance — e.g. a
// lease that expired, was reassigned, and then failed late — may not
// retry again: the newer instance owns the unit now).
func (g *group) advance(i, attempt int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.settled[i] || g.gen[i] != attempt {
		return false
	}
	g.gen[i] = attempt + 1
	return true
}

// Pool runs units under leases. Create with New, stop with Close.
type Pool struct {
	opts Options

	mu     sync.Mutex
	queue  []*task
	cond   *sync.Cond
	closed bool

	workers  sync.WaitGroup // worker loops
	attempts sync.WaitGroup // per-attempt child goroutines
	timers   sync.WaitGroup // pending reassignment timers
	active   atomic.Int64   // currently leased units
}

// New starts a pool of o.Workers workers.
func New(o Options) *Pool {
	p := &Pool{opts: o.withDefaults()}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < p.opts.Workers; i++ {
		p.workers.Add(1)
		go p.worker()
	}
	return p
}

// Do runs the units to settlement and returns their results in unit
// order. Cancelling ctx settles unstarted and in-flight units with
// ctx's error (cancellation is a decision, not a fault — it is never
// retried). Multiple Do calls may share the pool concurrently.
func (p *Pool) Do(ctx context.Context, units []Unit) []Result {
	g := &group{
		ctx:       ctx,
		results:   make([]Result, len(units)),
		settled:   make([]bool, len(units)),
		gen:       make([]int, len(units)),
		remaining: len(units),
		done:      make(chan struct{}),
	}
	if len(units) == 0 {
		return nil
	}
	for i, u := range units {
		g.gen[i] = 1
		p.enqueue(&task{unit: u, attempt: 1, group: g, index: i})
	}
	select {
	case <-g.done:
	case <-ctx.Done():
		// Settle everything still open; instances already running will
		// observe ctx themselves, and their late results are ignored.
		g.mu.Lock()
		for i := range units {
			if !g.settled[i] {
				g.settled[i] = true
				g.results[i] = Result{ID: units[i].ID, Err: ctx.Err(), Attempts: g.gen[i]}
				g.remaining--
			}
		}
		if g.remaining == 0 {
			g.closeDone()
		}
		g.mu.Unlock()
	}
	return g.results
}

// Close drains the pool: running and queued units finish (so Do
// callers see them settle — cancel their contexts first for a fast
// stop), and every goroutine the pool started (workers, attempt
// children, pending reassignment timers) exits before Close returns.
// Only a unit waiting out a retry backoff when the pool closes settles
// with an error instead of running again.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	// Workers first: an in-flight lease may still arm a reassignment
	// timer, so timers can only be waited once no worker is running.
	// Timer callbacks that fire after close settle their unit in enqueue.
	p.workers.Wait()
	p.timers.Wait()
	p.attempts.Wait()
}

func (p *Pool) enqueue(t *task) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t.group.settle(t.index, Result{ID: t.unit.ID, Err: fmt.Errorf("pool: closed before %s settled", t.unit.ID), Attempts: t.attempt - 1})
		return
	}
	p.queue = append(p.queue, t)
	obs.G("serve.queue_depth").Set(int64(len(p.queue)))
	p.cond.Signal()
	p.mu.Unlock()
}

// dequeue blocks for the next task; nil means the pool is closed and
// the queue is empty.
func (p *Pool) dequeue() *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.queue) == 0 {
		return nil
	}
	t := p.queue[0]
	p.queue = p.queue[1:]
	obs.G("serve.queue_depth").Set(int64(len(p.queue)))
	return t
}

func (p *Pool) worker() {
	defer p.workers.Done()
	for {
		t := p.dequeue()
		if t == nil {
			return
		}
		p.lease(t)
	}
}

// lease runs one attempt of a task under a heartbeat lease.
func (p *Pool) lease(t *task) {
	g := t.group
	if g.isSettled(t.index) {
		return // another instance already finished this unit
	}
	if err := g.ctx.Err(); err != nil {
		g.settle(t.index, Result{ID: t.unit.ID, Err: err, Attempts: t.attempt - 1})
		return
	}
	obs.C("serve.leases_granted").Inc()
	p.active.Add(1)
	obs.G("serve.active_leases").Set(p.active.Load())
	defer func() {
		p.active.Add(-1)
		obs.G("serve.active_leases").Set(p.active.Load())
	}()

	actx, acancel := context.WithCancel(g.ctx)
	defer acancel()
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	beat := func() { lastBeat.Store(time.Now().UnixNano()) }

	resCh := make(chan error, 1)
	p.attempts.Add(1)
	go func() {
		defer p.attempts.Done()
		defer func() {
			if r := recover(); r != nil {
				obs.C("serve.worker_panics").Inc()
				resCh <- fmt.Errorf("pool: unit %s panicked: %v", t.unit.ID, r)
			}
		}()
		resCh <- t.unit.Run(actx, beat)
	}()

	tick := time.NewTicker(p.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case err := <-resCh:
			if err == nil {
				g.settle(t.index, Result{ID: t.unit.ID, Attempts: t.attempt})
				return
			}
			if cerr := g.ctx.Err(); cerr != nil {
				g.settle(t.index, Result{ID: t.unit.ID, Err: cerr, Attempts: t.attempt})
				return
			}
			p.retryOrFail(t, err)
			return
		case <-tick.C:
			idle := time.Since(time.Unix(0, lastBeat.Load()))
			if idle < p.opts.LeaseTTL {
				continue
			}
			// Lease expired: reclaim it. Cancel the attempt, free this
			// worker slot, and reassign. If the attempt is alive but
			// wedged on something that ignores ctx, its goroutine keeps
			// running until it notices — the deterministic merge makes
			// the duplicate harmless; Close waits it out.
			obs.C("serve.leases_expired").Inc()
			acancel()
			p.retryOrFail(t, fmt.Errorf("pool: lease on %s expired after %v without a heartbeat", t.unit.ID, idle))
			return
		case <-g.ctx.Done():
			g.settle(t.index, Result{ID: t.unit.ID, Err: g.ctx.Err(), Attempts: t.attempt})
			return
		}
	}
}

// retryOrFail reassigns a failed or expired attempt after backoff, or
// settles the unit when its attempts are exhausted.
func (p *Pool) retryOrFail(t *task, err error) {
	g := t.group
	if !g.advance(t.index, t.attempt) {
		return // settled meanwhile, or a newer instance owns the unit
	}
	if t.attempt >= p.opts.Retry.Attempts {
		g.settle(t.index, Result{ID: t.unit.ID, Err: err, Attempts: t.attempt})
		return
	}
	obs.C("serve.lease_retries").Inc()
	next := &task{unit: t.unit, attempt: t.attempt + 1, group: g, index: t.index}
	p.timers.Add(1)
	time.AfterFunc(p.opts.Retry.Backoff(t.attempt), func() {
		defer p.timers.Done()
		p.enqueue(next)
	})
}

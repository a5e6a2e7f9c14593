package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastBackoff keeps test backoffs tiny.
const fastBackoff = time.Millisecond

// checkGoroutines fails the test if the goroutine count has not
// returned to its starting level shortly after the pool closes.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	want := []time.Duration{100, 200, 400, 800, 1600, 3200, 5000, 5000}
	for i, w := range want {
		if got := backoff(retryBase, i+1); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestAllUnitsRun(t *testing.T) {
	check := checkGoroutines(t)
	p := New(Options{Workers: 4, LeaseTTL: time.Second, backoffBase: fastBackoff})
	var ran atomic.Int64
	var units []Unit
	for i := 0; i < 50; i++ {
		units = append(units, Unit{
			ID:  fmt.Sprintf("u%d", i),
			Run: func(ctx context.Context, beat func()) error { ran.Add(1); return nil },
		})
	}
	res := p.Do(context.Background(), units)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if r.Attempts != 1 {
			t.Fatalf("%s: %d attempts, want 1", r.ID, r.Attempts)
		}
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d units, want 50", ran.Load())
	}
	p.Close()
	check()
}

// TestLeaseScenarios is the table-driven core: each case is one unit
// with a particular failure behavior and the settlement we expect.
func TestLeaseScenarios(t *testing.T) {
	cases := []struct {
		name string
		// run builds the unit's Run given a per-unit attempt counter.
		run          func(attempts *atomic.Int64) func(context.Context, func()) error
		wantErr      bool
		wantAttempts int
	}{
		{
			name: "first try success",
			run: func(a *atomic.Int64) func(context.Context, func()) error {
				return func(ctx context.Context, beat func()) error { a.Add(1); return nil }
			},
			wantAttempts: 1,
		},
		{
			name: "fails once then succeeds",
			run: func(a *atomic.Int64) func(context.Context, func()) error {
				return func(ctx context.Context, beat func()) error {
					if a.Add(1) == 1 {
						return errors.New("transient")
					}
					return nil
				}
			},
			wantAttempts: 2,
		},
		{
			name: "panics once then succeeds",
			run: func(a *atomic.Int64) func(context.Context, func()) error {
				return func(ctx context.Context, beat func()) error {
					if a.Add(1) == 1 {
						panic("boom")
					}
					return nil
				}
			},
			wantAttempts: 2,
		},
		{
			name: "always fails exhausts attempts",
			run: func(a *atomic.Int64) func(context.Context, func()) error {
				return func(ctx context.Context, beat func()) error {
					a.Add(1)
					return errors.New("permanent")
				}
			},
			wantErr:      true,
			wantAttempts: 3,
		},
		{
			name: "silent worker expires then a retry succeeds",
			run: func(a *atomic.Int64) func(context.Context, func()) error {
				return func(ctx context.Context, beat func()) error {
					if a.Add(1) == 1 {
						// Never heartbeat; block until the lease monitor
						// cancels us — a worker killed mid-shard.
						<-ctx.Done()
						return ctx.Err()
					}
					return nil
				}
			},
			wantAttempts: 2,
		},
		{
			name: "heartbeats hold the lease through slow work",
			run: func(a *atomic.Int64) func(context.Context, func()) error {
				return func(ctx context.Context, beat func()) error {
					a.Add(1)
					// Runs far past the TTL but beats often: must not expire.
					for i := 0; i < 40; i++ {
						time.Sleep(5 * time.Millisecond)
						beat()
					}
					return nil
				}
			},
			wantAttempts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := checkGoroutines(t)
			p := New(Options{Workers: 2, LeaseTTL: 50 * time.Millisecond, backoffBase: fastBackoff})
			var attempts atomic.Int64
			res := p.Do(context.Background(), []Unit{{ID: "u", Run: tc.run(&attempts)}})
			if len(res) != 1 {
				t.Fatalf("got %d results", len(res))
			}
			if (res[0].Err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", res[0].Err, tc.wantErr)
			}
			if res[0].Attempts != tc.wantAttempts {
				t.Fatalf("attempts = %d, want %d", res[0].Attempts, tc.wantAttempts)
			}
			p.Close()
			check()
		})
	}
}

// TestExpiredAttemptLateSuccessIsHarmless reproduces the
// completion-vs-expiry race: the first attempt stops heartbeating, the
// lease is reclaimed and the unit reassigned, and then the presumed-dead
// attempt finishes successfully anyway. The unit must settle exactly
// once and the duplicate execution must be observable (both ran) but
// harmless.
func TestExpiredAttemptLateSuccessIsHarmless(t *testing.T) {
	check := checkGoroutines(t)
	p := New(Options{Workers: 2, LeaseTTL: 40 * time.Millisecond, backoffBase: fastBackoff})
	var starts atomic.Int64
	release := make(chan struct{})
	res := p.Do(context.Background(), []Unit{{
		ID: "u",
		Run: func(ctx context.Context, beat func()) error {
			if starts.Add(1) == 1 {
				// Wedged but alive: ignore ctx, finish only when released.
				<-release
				return nil // late success after the lease was reclaimed
			}
			close(release) // second instance: prove the first ran too
			return nil
		},
	}})
	if res[0].Err != nil {
		t.Fatalf("unit failed: %v", res[0].Err)
	}
	if starts.Load() != 2 {
		t.Fatalf("expected a duplicate execution, got %d starts", starts.Load())
	}
	p.Close() // must wait out the wedged attempt goroutine
	check()
}

// TestCancelSettlesEverything: cancelling the Do context settles queued
// and running units with the context error and never retries them.
func TestCancelSettlesEverything(t *testing.T) {
	check := checkGoroutines(t)
	p := New(Options{Workers: 1, LeaseTTL: time.Second, backoffBase: fastBackoff})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var units []Unit
	var ran atomic.Int64
	units = append(units, Unit{ID: "blocker", Run: func(ctx context.Context, beat func()) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	for i := 0; i < 5; i++ {
		units = append(units, Unit{ID: fmt.Sprintf("q%d", i), Run: func(ctx context.Context, beat func()) error {
			ran.Add(1)
			return nil
		}})
	}
	done := make(chan []Result, 1)
	go func() { done <- p.Do(ctx, units) }()
	<-started
	cancel()
	res := <-done
	for _, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("%s: err %v, want context.Canceled", r.ID, r.Err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("queued units ran after cancel: %d", ran.Load())
	}
	p.Close()
	check()
}

// TestConcurrentGroupsShareThePool: several Do calls in flight at once,
// each settling independently, with the pool's worker bound respected.
func TestConcurrentGroupsShareThePool(t *testing.T) {
	check := checkGoroutines(t)
	const workers = 3
	p := New(Options{Workers: workers, LeaseTTL: time.Second, backoffBase: fastBackoff})
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var units []Unit
			for i := 0; i < 10; i++ {
				units = append(units, Unit{
					ID: fmt.Sprintf("g%d-u%d", g, i),
					Run: func(ctx context.Context, beat func()) error {
						n := inFlight.Add(1)
						for {
							old := peak.Load()
							if n <= old || peak.CompareAndSwap(old, n) {
								break
							}
						}
						time.Sleep(2 * time.Millisecond)
						inFlight.Add(-1)
						return nil
					},
				})
			}
			for _, r := range p.Do(context.Background(), units) {
				if r.Err != nil {
					t.Errorf("%s: %v", r.ID, r.Err)
				}
			}
		}(g)
	}
	wg.Wait()
	if peak.Load() > workers {
		t.Fatalf("peak concurrency %d exceeded the %d-worker bound", peak.Load(), workers)
	}
	p.Close()
	check()
}

// TestCloseDrainsQueued: closing the pool drains — queued units still
// run to completion instead of stranding their Do callers.
func TestCloseDrainsQueued(t *testing.T) {
	p := New(Options{Workers: 1, LeaseTTL: time.Second, backoffBase: fastBackoff})
	started := make(chan struct{})
	var once sync.Once
	units := []Unit{
		{ID: "running", Run: func(ctx context.Context, beat func()) error {
			once.Do(func() { close(started) })
			time.Sleep(50 * time.Millisecond)
			return nil
		}},
		{ID: "queued", Run: func(ctx context.Context, beat func()) error { return nil }},
	}
	done := make(chan []Result, 1)
	go func() { done <- p.Do(context.Background(), units) }()
	<-started
	p.Close()
	res := <-done
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s should finish through a drain: %v", r.ID, r.Err)
		}
	}
}

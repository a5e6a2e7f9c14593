package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestEveryIndexRunsOnce(t *testing.T) {
	const n = 1000
	var runs [n]atomic.Int32
	out := make([]int, n)
	if err := Each(context.Background(), n, 8, func(i int) error {
		runs[i].Add(1)
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if r := runs[i].Load(); r != 1 {
			t.Fatalf("index %d ran %d times", i, r)
		}
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i*i)
		}
	}
}

func TestNothingToRun(t *testing.T) {
	ran := false
	if err := Each(context.Background(), 0, 4, func(int) error { ran = true; return nil }); err != nil || ran {
		t.Fatalf("n = 0: error %v, ran %v; want nil and nothing run", err, ran)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Each(ctx, 100, 4, func(int) error { ran = true; return nil })
	if ran || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: error %v, ran %v; want context.Canceled and nothing run", err, ran)
	}
}

// The lowest failing index wins at any worker count, however the calls
// interleave: the later failures return first here.
func TestLowestFailingIndexWins(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for trial := 0; trial < 50; trial++ {
			err := Each(context.Background(), 200, workers, func(i int) error {
				switch i {
				case 37:
					time.Sleep(time.Millisecond)
					return fmt.Errorf("index %d", i)
				case 38, 90:
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 37" {
				t.Fatalf("%d workers, trial %d: error %v, want index 37", workers, trial, err)
			}
		}
	}
}

// Each returns only after every call it started has returned, on
// success, on failure and on cancellation, and its goroutines exit.
func TestNoGoroutineOutlivesTheCall(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var inFlight atomic.Int32
	run := func(ctx context.Context, fail func(i int) error) {
		_ = Each(ctx, 500, 16, func(i int) error {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			time.Sleep(10 * time.Microsecond)
			return fail(i)
		})
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("Each returned with %d calls still running", n)
		}
	}
	run(context.Background(), func(int) error { return nil })
	run(context.Background(), func(i int) error {
		if i == 10 {
			return errors.New("fail")
		}
		return nil
	})
	run(ctx, func(i int) error {
		if i == 10 {
			cancel()
		}
		return nil
	})
	// A worker counts as running until it has returned from its deferred
	// Done, a moment after Each's Wait wakes; allow that moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

package explore

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// Cancelling an enumeration mid-run must return promptly with a
// consistent partial point set (a prefix-by-completion of the same
// deterministic selection order, sorted the same way) and leak no worker
// goroutines.
func TestEnumerateCancellation(t *testing.T) {
	f := flow(t)
	before := runtime.NumGoroutine()

	full, err := EnumerateCtx(context.Background(), f, Options{})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	want := map[string][2]int{}
	for _, p := range full {
		want[p.Label()] = [2]int{p.ChipCells, p.TAT}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	partial, err := EnumerateCtx(ctx, f, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled enumeration took %v", d)
	}
	if len(partial) >= len(full) {
		t.Errorf("pre-cancelled enumeration completed %d/%d points", len(partial), len(full))
	}
	// Whatever did complete must agree with the full run point-for-point
	// and be sorted consistently.
	lastCells, lastTAT := -1, -1
	for _, p := range partial {
		got, ok := want[p.Label()]
		if !ok || got != [2]int{p.ChipCells, p.TAT} {
			t.Errorf("partial point %s (%d cells, %d TAT) disagrees with full run %v", p.Label(), p.ChipCells, p.TAT, got)
		}
		if p.ChipCells < lastCells || (p.ChipCells == lastCells && p.TAT < lastTAT) {
			t.Errorf("partial points unsorted at %s", p.Label())
		}
		lastCells, lastTAT = p.ChipCells, p.TAT
	}
	// The partial front must be internally consistent (monotone TAT).
	front := Pareto(partial)
	best := int(^uint(0) >> 1)
	for _, p := range front {
		if p.TAT >= best {
			t.Errorf("partial Pareto front not monotone at %s", p.Label())
		}
		best = p.TAT
	}

	// A cancellation mid-run (not just pre-cancelled): cut the context off
	// after the first point lands.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		partial2, err := EnumerateCtx(ctx2, f, Options{Workers: 2})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("mid-run cancel err = %v", err)
		}
		for _, p := range partial2 {
			if got := want[p.Label()]; got != [2]int{p.ChipCells, p.TAT} {
				t.Errorf("mid-run partial point %s disagrees with full run", p.Label())
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	cancel2()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled enumeration did not return within 5s")
	}

	// Workers must all have exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

func TestImproveCancellation(t *testing.T) {
	f := flow(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ImproveCtx(ctx, f, MinimizeTAT, 1_000_000, Options{})
	if err == nil {
		// The initial evaluation may have been cached before the ctx check;
		// a finished walk is acceptable only with a result.
		t.Skip("walk finished before the cancellation was observed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil && res.Selection == nil && len(res.Steps) > 0 {
		t.Error("cancelled walk returned steps without a selection")
	}
}

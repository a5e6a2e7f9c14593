// Package fanout runs an index-addressed loop on a bounded set of
// goroutines: the one worker pool of the repository. Its callers are
// explore.Visit (design points), resil.Campaign.Visit (fault-set runs),
// wrap.Evaluate (per-core balancing), and ATPG's search rounds and
// fault-simulation shares.
package fanout

import (
	"context"
	"sync"
)

// Each calls fn(i) for i = 0…n−1 on min(max(workers, 1), n) goroutines.
// Indices are handed out in increasing order. After a call fails, or once
// ctx is done, no further index is handed out; Each returns when every
// started call has returned.
//
// Each returns the error of the lowest failing index. Every index below
// it was handed out earlier and ran to completion, so that error is the
// same at any worker count. When no call failed but ctx stopped Each
// before every index was handed out, it returns ctx.Err().
func Each(ctx context.Context, n, workers int, fn func(i int) error) error {
	var (
		mu     sync.Mutex
		next   int
		failAt = n
		err    error
		wg     sync.WaitGroup
	)
	for w := 0; w < min(max(workers, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || failAt < n || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if e := fn(i); e != nil {
					mu.Lock()
					if i < failAt {
						failAt, err = i, e
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err == nil && next < n {
		return ctx.Err()
	}
	return err
}

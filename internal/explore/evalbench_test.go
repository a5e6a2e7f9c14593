package explore

import (
	"context"
	"testing"
)

func BenchmarkEvaluate(b *testing.B) {
	f := flow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkEnumerate measures one full design-space enumeration of the
// System 1 version ladder at a fixed worker count. Compare the Serial and
// Parallel4 variants for the pool's speedup (needs >= 4 hardware threads
// to show; the result is identical either way).
func benchmarkEnumerate(b *testing.B, workers int) {
	f := flow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := EnumerateCtx(context.Background(), f, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkEnumerateSerial(b *testing.B)    { benchmarkEnumerate(b, 1) }
func BenchmarkEnumerateParallel2(b *testing.B) { benchmarkEnumerate(b, 2) }
func BenchmarkEnumerateParallel4(b *testing.B) { benchmarkEnumerate(b, 4) }

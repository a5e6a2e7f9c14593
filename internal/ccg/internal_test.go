package ccg

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

func TestEarliestFree(t *testing.T) {
	r := Reservations{}
	key := ResKey{Core: "X", Edge: 1}
	r.Reserve([]ResKey{key}, 0, 5)
	r.Reserve([]ResKey{key}, 8, 2)
	cases := []struct{ t, dur, want int }{
		{0, 3, 5},  // blocked by [0,5)
		{5, 3, 5},  // fits [5,8)
		{5, 4, 10}, // would overlap [8,10)
		{10, 4, 10},
		{0, 0, 0}, // zero duration never waits
	}
	for _, tc := range cases {
		if got := r.earliestFree([]ResKey{key}, tc.t, tc.dur); got != tc.want {
			t.Errorf("earliestFree(t=%d,dur=%d) = %d, want %d", tc.t, tc.dur, got, tc.want)
		}
	}
}

// refHeap is the container/heap reference pq must reproduce.
type refHeap []pqItem

func (p refHeap) Len() int            { return len(p) }
func (p refHeap) Less(i, j int) bool  { return p[i].less(p[j]) }
func (p refHeap) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refHeap) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *refHeap) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// TestHeapMatchesContainerHeap drives pq and container/heap through the
// same random push/pop interleavings, with arrivals and nodes drawn from
// small ranges so equal arrivals and repeated entries are common, and
// requires the same pops and the same layout after every operation.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var got pq
		var want refHeap
		span := 1 + rng.Intn(8)
		for op := 0; op < 300; op++ {
			if len(want) == 0 || rng.Intn(3) > 0 {
				it := pqItem{node: rng.Intn(2 * span), time: rng.Intn(span)}
				got.push(it)
				heap.Push(&want, it)
			} else {
				g, w := got.pop(), heap.Pop(&want).(pqItem)
				if g != w {
					t.Fatalf("trial %d op %d: popped %+v, container/heap pops %+v", trial, op, g, w)
				}
			}
			if !slices.Equal(got, pq(want)) {
				t.Fatalf("trial %d op %d: layout %v, container/heap %v", trial, op, got, want)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(pqItem); g != w {
				t.Fatalf("trial %d drain: popped %+v, container/heap pops %+v", trial, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d entries left after draining", trial, len(got))
		}
	}
}

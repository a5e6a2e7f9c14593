package fsim_test

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/rtl"
	"repro/internal/rtlgen"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/synth"
	"repro/internal/systems"
)

// referenceCorpus synthesizes every core of Systems 1 and 2 and of the
// 24-core socgen chips of seeds 3 and 11, and the rtlgen cores of seeds
// 77 to 136.
func referenceCorpus(t *testing.T) []namedNetlist {
	t.Helper()
	var cores []*rtl.Core
	chips := []*soc.Chip{systems.System1(), systems.System2()}
	for _, seed := range []uint64{3, 11} {
		ch, err := socgen.Generate(socgen.Params{Seed: seed, Cores: 24})
		if err != nil {
			t.Fatal(err)
		}
		chips = append(chips, ch)
	}
	for _, ch := range chips {
		for _, c := range ch.Cores {
			cores = append(cores, c.RTL)
		}
	}
	cores = append(cores, rtlgen.Many(60, 77)...)
	out := make([]namedNetlist, len(cores))
	for i, c := range cores {
		sr, err := synth.Synthesize(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		out[i] = namedNetlist{fmt.Sprintf("#%d %s", i, c.Name), sr.Netlist}
	}
	return out
}

type namedNetlist struct {
	name string
	n    *gate.Netlist
}

// randomPatterns draws k full-scan patterns for n from seed.
func randomPatterns(n *gate.Netlist, k int, seed uint64) []gate.Pattern {
	x := seed*0x9e3779b97f4a7c15 | 1
	bit := func() byte {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return byte(x >> 63)
	}
	pats := make([]gate.Pattern, k)
	for i := range pats {
		pats[i].PI = make([]byte, len(n.PIs()))
		for j := range pats[i].PI {
			pats[i].PI[j] = bit()
		}
		if len(n.DFFs()) > 0 {
			pats[i].State = make([]byte, len(n.DFFs()))
			for j := range pats[i].State {
				pats[i].State[j] = bit()
			}
		}
	}
	return pats
}

// TestDetectMatchesReference checks the fanout-free-region simulator
// against the per-fault reference on every fault of every word: First
// must report the reference's lowest detecting lane, or -1 where the
// reference detects nothing. One simulator serves all pattern sets of a
// netlist, so a stem's cached observability must never outlive its
// word. Appending a word's patterns one lane at a time to an empty word
// must give every fault the same First as loading the word; First runs
// on every fault after the first lane too, so a stem cached for the
// one-lane word would show. Detect must then report, for every fault,
// the first detecting pattern the reference finds.
func TestDetectMatchesReference(t *testing.T) {
	runs, bad := 0, 0
	corpus := referenceCorpus(t)
	for _, c := range corpus {
		name, n := c.name, c.n
		s, err := fsim.NewSimulator(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		faults := n.Faults()
		for _, k := range []int{1, 7, 64, 130} {
			pats := randomPatterns(n, k, uint64(len(faults)*1000+k))
			want := make([]int, len(faults))
			for i := range want {
				want[i] = -1
			}
			firsts := make([]int, len(faults))
			for base := 0; base < k; base += 64 {
				word := pats[base:min(base+64, k)]
				if err := s.Load(word); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, f := range faults {
					got, ref := s.First(f), s.RefSimulate(f)
					firsts[i] = got
					runs++
					lowest := -1
					if ref != 0 {
						lowest = bits.TrailingZeros64(ref)
					}
					if got != lowest {
						if bad++; bad <= 10 {
							t.Errorf("%s, %d patterns, word %d: fault %v first detected in lane %d, reference lanes %#x",
								name, k, base/64, f, got, ref)
						}
					}
					if lowest >= 0 && want[i] < 0 {
						want[i] = base + lowest
					}
				}
				if err := s.Load(nil); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for j, p := range word {
					if err := s.Append(p); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if j > 0 && j < len(word)-1 {
						continue
					}
					for i, f := range faults {
						got := s.First(f)
						if j == len(word)-1 && got != firsts[i] {
							if bad++; bad <= 10 {
								t.Errorf("%s, %d patterns, word %d: fault %v first detected in lane %d after %d appends, %d after a load",
									name, k, base/64, f, got, len(word), firsts[i])
							}
						}
					}
				}
			}
			by := make([]int, len(faults))
			for i := range by {
				by[i] = -1
			}
			found, err := s.Detect(pats, faults, by)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range by {
				if want[i] >= 0 {
					found--
				}
				if by[i] != want[i] {
					if bad++; bad <= 10 {
						t.Errorf("%s, %d patterns: fault %v first detected by pattern %d, reference %d",
							name, k, faults[i], by[i], want[i])
					}
				}
			}
			if found != 0 {
				if bad++; bad <= 10 {
					t.Errorf("%s, %d patterns: Detect's count is off by %d", name, k, found)
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d comparisons disagree", bad, runs)
	}
	t.Logf("%d fault runs on %d netlists agree", runs, len(corpus))
}

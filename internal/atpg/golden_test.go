package atpg

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/rtlgen"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/synth"
	"repro/internal/systems"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt with the current output")

// TestGoldenTestSets pins the precomputed test set of every logic core of
// both example systems: the Stats, a SHA-256 over the pattern bytes, and
// the search-effort counters. The PODEM search and the fault simulator
// are deterministic, so any diff is a behavior change that must be
// reviewed (and blessed with -update, which also means bumping
// storeVersion). Each test set also goes through a Store and must load
// back identical.
func TestGoldenTestSets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ATPG on every System 1 and System 2 core")
	}
	store := NewStore(t.TempDir())
	var b strings.Builder
	for _, ch := range []*soc.Chip{systems.System1(), systems.System2()} {
		for _, c := range ch.Cores {
			if c.Memory {
				continue
			}
			b.WriteString(goldenLine(t, c, store))
		}
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("test sets differ from %s (re-bless with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// goldenLine runs default ATPG on one core with a fresh metrics registry
// and formats its fingerprint, after round-tripping the result through
// store. Fault simulation of the final patterns must detect exactly the
// faults Stats counts as detected.
func goldenLine(t *testing.T, c *soc.Core, store *Store) string {
	t.Helper()
	sr, err := synth.Synthesize(c.RTL)
	if err != nil {
		t.Fatal(err)
	}
	_, m := obs.Enable(0)
	defer obs.Disable()
	res, err := Generate(sr.Netlist, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	fr, err := fsim.Combinational(sr.Netlist, res.Patterns, sr.Netlist.Faults())
	if err != nil {
		t.Fatalf("%s: fault simulation: %v", c.Name, err)
	}
	if fr.Detected != res.Stats.Detected {
		t.Errorf("%s: fault simulation of the final patterns detects %d faults, Stats.Detected is %d",
			c.Name, fr.Detected, res.Stats.Detected)
	}
	store.Put(sr.Netlist, nil, res)
	if got, ok := store.Get(sr.Netlist, nil); !ok || !reflect.DeepEqual(got, res) {
		t.Errorf("%s: stored test set loads back as hit=%v, equal=%v", c.Name, ok, reflect.DeepEqual(got, res))
	}
	h := sha256.New()
	for _, p := range res.Patterns {
		h.Write(p.PI)
		h.Write(p.State)
	}
	s := res.Stats
	return fmt.Sprintf("%s faults=%d detected=%d untestable=%d aborted=%d vectors=%d backtracks=%d implications=%d sha256=%x\n",
		c.Name, s.Faults, s.Detected, s.Untestable, s.Aborted, s.Vectors,
		m.Counter("atpg.backtracks").Value(), m.Counter("atpg.implications").Value(), h.Sum(nil))
}

// workerCounts are the worker counts the identity tests run ATPG on.
var workerCounts = []int{1, 2, 3, 8}

// TestGenerateDigest pins Generate on a wider corpus than the goldens:
// the 114 netlists of digestNetlists, each at both digestOptions. One
// SHA-256 covers each run's Stats, its backtrack and implication counts
// and every pattern's bytes, so a change to the search, the fault
// dropping or the compaction shows here even where the goldens' cores do
// not exercise it. Every worker count of workerCounts must give the same
// digest.
func TestGenerateDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ATPG twice on 114 netlists")
	}
	const want = "c37152825f090555aa32afa7c66e6279c3c4be7a7a741321b1855d7ee104fd09"
	nets := digestNetlists(t)
	hs := make([]hash.Hash, len(workerCounts))
	for i := range hs {
		hs[i] = sha256.New()
	}
	for _, n := range nets {
		for _, o := range digestOptions {
			for i, workers := range workerCounts {
				_, m := obs.Enable(0)
				res, err := generateOn(n, n.Faults(), o.withDefaults(), workers)
				obs.Disable()
				if err != nil {
					t.Fatalf("%s, %d workers: %v", n.Name, workers, err)
				}
				fmt.Fprintf(hs[i], "%+v %d %d|", res.Stats,
					m.Counter("atpg.backtracks").Value(), m.Counter("atpg.implications").Value())
				for _, p := range res.Patterns {
					hs[i].Write(p.PI)
					hs[i].Write(p.State)
				}
			}
		}
	}
	for i, workers := range workerCounts {
		if got := fmt.Sprintf("%x", hs[i].Sum(nil)); got != want {
			t.Errorf("%d netlists, %d workers: digest %s, want %s", len(nets), workers, got, want)
		}
	}
}

// digestOptions are TestGenerateDigest's option sets: the defaults, and a
// low backtrack limit with no random pre-pass, which searches every fault.
var digestOptions = []*Options{nil, {BacktrackLimit: 8, RandomPatterns: -1}}

// digestNetlists synthesizes TestGenerateDigest's corpus: the logic cores
// of Systems 1 and 2, the rtlgen cores of seeds 77 to 136 and the logic
// cores of the 24-core socgen chips of seeds 3 and 11, in that order.
func digestNetlists(t *testing.T) []*gate.Netlist {
	t.Helper()
	var cores []*rtl.Core
	logic := func(ch *soc.Chip) {
		for _, c := range ch.Cores {
			if !c.Memory {
				cores = append(cores, c.RTL)
			}
		}
	}
	logic(systems.System1())
	logic(systems.System2())
	cores = append(cores, rtlgen.Many(60, 77)...)
	for _, seed := range []uint64{3, 11} {
		ch, err := socgen.Generate(socgen.Params{Seed: seed, Cores: 24})
		if err != nil {
			t.Fatal(err)
		}
		logic(ch)
	}
	nets := make([]*gate.Netlist, len(cores))
	for i, c := range cores {
		sr, err := synth.Synthesize(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		nets[i] = sr.Netlist
	}
	return nets
}

// TestWorkerCountsAgree runs ATPG on System 1's logic cores at every
// worker count of workerCounts. Each core's Stats and pattern bytes and
// its backtrack, implication, gate-evaluation and refuted-fault counts
// must be those of one worker, and the System 1 totals of the counts
// those that `socet -system 1 -metrics` reports.
func TestWorkerCountsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ATPG on System 1 once per worker count")
	}
	var nets []*gate.Netlist
	for _, c := range systems.System1().Cores {
		if c.Memory {
			continue
		}
		sr, err := synth.Synthesize(c.RTL)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, sr.Netlist)
	}
	var want []string
	for _, workers := range workerCounts {
		var got []string
		var totals [4]int64
		for _, n := range nets {
			_, m := obs.Enable(0)
			res, err := generateOn(n, n.Faults(), (*Options)(nil).withDefaults(), workers)
			obs.Disable()
			if err != nil {
				t.Fatalf("%s, %d workers: %v", n.Name, workers, err)
			}
			counts := [4]int64{m.Counter("atpg.backtracks").Value(), m.Counter("atpg.implications").Value(),
				m.Counter("atpg.gate_evals").Value(), m.Counter("atpg.refuted").Value()}
			for i := range totals {
				totals[i] += counts[i]
			}
			h := sha256.New()
			for _, p := range res.Patterns {
				h.Write(p.PI)
				h.Write(p.State)
			}
			got = append(got, fmt.Sprintf("%s %+v backtracks, implications, gate evaluations, refuted %v sha256=%x", n.Name, res.Stats, counts, h.Sum(nil)))
		}
		if pinned := [4]int64{9216, 35437, 3681656, 1310}; totals != pinned {
			t.Errorf("%d workers: System 1 backtracks, implications, gate evaluations, refuted %v, want %v", workers, totals, pinned)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%d workers: %s\n%d workers: %s", workers, got[i], workerCounts[0], want[i])
			}
		}
	}
}

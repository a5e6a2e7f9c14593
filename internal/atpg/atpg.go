// Package atpg generates full-scan combinational test patterns with the
// PODEM algorithm over a five-valued (good/faulty three-valued) algebra.
// It plays the role of the commercial combinational ATPG tool used in the
// paper's experiments (Section 6): each HSCAN/full-scan core is tested with
// patterns produced here, and the resulting vector counts feed the test
// application time model.
package atpg

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/fanout"
	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/obs"
)

// Three-valued signal levels.
const (
	lo byte = 0
	hi byte = 1
	xx byte = 2
)

// Options tunes test generation.
type Options struct {
	BacktrackLimit int    // per-fault PODEM backtrack budget (default 64)
	FillSeed       uint64 // seed for deterministic random fill of don't-cares
	Compact        bool   // reverse-order pattern compaction pass
	// RandomPatterns is the size of the random-pattern pre-pass that
	// cheaply clears the easy faults before deterministic PODEM runs
	// (default 192; set negative to disable).
	RandomPatterns int
}

func (o *Options) withDefaults() Options {
	v := Options{BacktrackLimit: 64, FillSeed: 0x5eed, Compact: true, RandomPatterns: 192}
	if o != nil {
		if o.BacktrackLimit > 0 {
			v.BacktrackLimit = o.BacktrackLimit
		}
		if o.FillSeed != 0 {
			v.FillSeed = o.FillSeed
		}
		v.Compact = o.Compact
		if o.RandomPatterns > 0 {
			v.RandomPatterns = o.RandomPatterns
		}
		if o.RandomPatterns < 0 {
			v.RandomPatterns = 0
		}
	}
	return v
}

// Stats reports test generation results.
type Stats struct {
	Faults     int // total collapsed faults
	Detected   int // detected by the final patterns
	Untestable int // proven redundant
	Aborted    int // backtrack limit exceeded, and no final pattern detects it
	Vectors    int // patterns emitted (after compaction)
}

// FaultCoverage returns detected/faults in percent.
func (s Stats) FaultCoverage() float64 {
	if s.Faults == 0 {
		return 0
	}
	return 100 * float64(s.Detected) / float64(s.Faults)
}

// TestEfficiency returns (detected+untestable)/faults in percent.
func (s Stats) TestEfficiency() float64 {
	if s.Faults == 0 {
		return 0
	}
	return 100 * float64(s.Detected+s.Untestable) / float64(s.Faults)
}

// Result bundles the generated test set.
type Result struct {
	Patterns []gate.Pattern
	Stats    Stats
}

// Generate runs PODEM over the full fault list of n, fault-simulating
// each new pattern against the remaining faults (fault dropping).
func Generate(n *gate.Netlist, opts *Options) (*Result, error) {
	return GenerateFor(n, n.Faults(), opts)
}

// GenerateFor runs test generation for an explicit fault list, on one
// worker per CPU (runtime.GOMAXPROCS). The test set, the Stats and the
// counters are the same at any worker count.
func GenerateFor(n *gate.Netlist, faults []gate.Fault, opts *Options) (*Result, error) {
	return generateOn(n, faults, opts.withDefaults(), runtime.GOMAXPROCS(0))
}

// generateOn is GenerateFor on the given number of workers.
func generateOn(n *gate.Netlist, faults []gate.Fault, o Options, workers int) (*Result, error) {
	workers = max(1, min(workers, len(faults)))
	// Every engine and simulator is built here, before any worker starts:
	// building them fills the netlist's lazily built caches, which the
	// workers then only read. engines is the free list of the searches,
	// one engine per worker.
	engines := make(chan *engine, workers)
	sims := make([]*fsim.Simulator, workers)
	for w := range sims {
		e, err := newEngine(n)
		if err != nil {
			return nil, err
		}
		engines <- e
		if sims[w], err = fsim.NewSimulator(n); err != nil {
			return nil, err
		}
	}
	sim := sims[0] // also holds phase 2's loaded word
	cBacktracks, cImplications, cGateEvals := obs.C("atpg.backtracks"), obs.C("atpg.implications"), obs.C("atpg.gate_evals")
	res := &Result{Stats: Stats{Faults: len(faults)}}
	// aborted lists the faults PODEM gave up on, refuted counts those the
	// redundancy check proved untestable.
	var aborted []gate.Fault
	refuted := 0
	// by[i] >= 0 once faults[i] is detected. Only the random pre-pass
	// reads the value: the index of its pattern that detected the fault.
	// After it, only the sign is read.
	by := make([]int, len(faults))
	for i := range by {
		by[i] = -1
	}
	rng := splitMix{o.FillSeed}
	nPI := len(n.PIs())

	// Phase 1: random-pattern pre-pass with fault dropping. Patterns that
	// detect nothing first are discarded immediately.
	if o.RandomPatterns > 0 {
		rpats := make([]gate.Pattern, o.RandomPatterns)
		nFF := len(n.DFFs())
		for i := range rpats {
			p := gate.Pattern{PI: make([]byte, nPI)}
			if nFF > 0 {
				p.State = make([]byte, nFF)
			}
			for j := range p.PI {
				p.PI[j] = byte(rng.next() & 1)
			}
			for j := range p.State {
				p.State[j] = byte(rng.next() & 1)
			}
			rpats[i] = p
		}
		found, err := detect(sims, rpats, faults, by)
		if err != nil {
			return nil, err
		}
		res.Stats.Detected += found
		used := make([]bool, len(rpats))
		for _, b := range by {
			if b >= 0 {
				used[b] = true
			}
		}
		for i, u := range used {
			if u {
				res.Patterns = append(res.Patterns, rpats[i])
			}
		}
	}

	// Phase 2: deterministic PODEM on the survivors, dropping every fault
	// a pattern made for an earlier fault detects. The patterns made since
	// the last flush are the simulator's loaded word, and each fault is
	// checked against it at its turn. A full word is flushed against
	// every later fault at once, so each fault meets every older pattern.
	//
	// The searches run ahead in rounds of up to 8 undetected faults per
	// worker, and each round commits in fault order exactly as a loop
	// over the faults decides (DESIGN.md §11): a member whose turn finds
	// it detected is dropped with its search.
	var word []gate.Pattern
	// dropped reports whether an older pattern detects faults[fi]:
	// by[fi] is set, or the loaded word detects it, which it then counts.
	dropped := func(fi int) bool {
		if by[fi] >= 0 {
			return true
		}
		if len(word) > 0 {
			if lane := sim.First(faults[fi]); lane >= 0 {
				by[fi] = len(res.Patterns) - len(word) + lane
				res.Stats.Detected++
				return true
			}
		}
		return false
	}
	size := 1
	if workers > 1 {
		size = 8 * workers
	}
	round := make([]searched, size)
	for next := 0; next < len(faults); {
		k := 0
		for ; next < len(faults) && k < size; next++ {
			if !dropped(next) {
				round[k].fi = next
				k++
			}
		}
		batch := round[:k]
		// run keeps a panic as the member's error, which the commit
		// returns in fault order, so Each has no error to return.
		_ = fanout.Each(context.Background(), k, workers, func(i int) error {
			e := <-engines
			batch[i].run(e, faults[batch[i].fi], o.BacktrackLimit)
			engines <- e
			return nil
		})
		for i := range batch {
			s := &batch[i]
			// Member 0 was checked at gather time, and nothing has
			// changed since.
			if i > 0 && dropped(s.fi) {
				continue
			}
			if s.err != nil {
				return nil, s.err
			}
			cBacktracks.Add(s.effort.backtracks)
			cImplications.Add(s.effort.implications)
			cGateEvals.Add(s.effort.evals)
			switch s.out {
			case outDetected:
				pat := fill(s.assign, nPI, &rng)
				res.Patterns = append(res.Patterns, pat)
				by[s.fi] = len(res.Patterns) - 1
				res.Stats.Detected++
				word = append(word, pat)
				var err error
				switch {
				case len(word) == 1:
					err = sim.Load(word)
				case len(word) < 64:
					err = sim.Append(pat)
				default:
					var found int
					found, err = detect(sims, word, faults[s.fi+1:], by[s.fi+1:])
					res.Stats.Detected += found
					word = word[:0]
				}
				if err != nil {
					return nil, err
				}
			case outRefuted:
				refuted++
				res.Stats.Untestable++
			case outUntestable:
				res.Stats.Untestable++
			case outAborted:
				aborted = append(aborted, faults[s.fi])
				res.Stats.Aborted++
			}
		}
	}
	if o.Compact && len(res.Patterns) > 1 {
		var err error
		if res.Patterns, err = compact(sims, res.Patterns, faults); err != nil {
			return nil, err
		}
	}
	// An aborted fault met only the patterns made before its turn. The
	// final patterns may detect it: compaction keeps a detector of every
	// fault the full set detects, so recount the aborted ones against them.
	if len(aborted) > 0 && len(res.Patterns) > 0 {
		by := make([]int, len(aborted))
		for i := range by {
			by[i] = -1
		}
		found, err := detect(sims, res.Patterns, aborted, by)
		if err != nil {
			return nil, err
		}
		res.Stats.Detected += found
		res.Stats.Aborted -= found
	}
	res.Stats.Vectors = len(res.Patterns)
	obs.C("atpg.faults").Add(int64(res.Stats.Faults))
	obs.C("atpg.detected").Add(int64(res.Stats.Detected))
	obs.C("atpg.untestable").Add(int64(res.Stats.Untestable))
	obs.C("atpg.refuted").Add(int64(refuted))
	obs.C("atpg.aborted_faults").Add(int64(res.Stats.Aborted))
	obs.C("atpg.vectors").Add(int64(res.Stats.Vectors))
	return res, nil
}

// searched is one search of a round: the fault's index, how the search
// ended and what it cost, the assignment that detects the fault, and
// the error a panic of the search became.
type searched struct {
	fi     int
	out    outcome
	effort effort
	assign []byte
	err    error
}

// searchHook, when not nil, runs before each search of generateOn. Tests
// set it to see which faults are searched and to make a search panic.
var searchHook func(gate.Fault)

// run searches f on e. The search runs on a fanout goroutine, where a
// panic would end the process, so a panic becomes s.err, which the
// commit returns if the search counts.
func (s *searched) run(e *engine, f gate.Fault, backtrackLimit int) {
	s.err = nil
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("atpg: searching fault %v panicked: %v\n%s", f, r, debug.Stack())
		}
	}()
	if searchHook != nil {
		searchHook(f)
	}
	s.out, s.effort = e.search(f, backtrackLimit)
	if s.out == outDetected {
		s.assign = append(s.assign[:0], e.assign...)
	}
}

// fill turns an assignment of the controllable lines, the nPI PIs first
// and then the DFF outputs, into a concrete pattern, filling its
// don't-cares from rng.
func fill(assign []byte, nPI int, rng *splitMix) gate.Pattern {
	p := gate.Pattern{PI: make([]byte, nPI)}
	if nFF := len(assign) - nPI; nFF > 0 {
		p.State = make([]byte, nFF)
	}
	for i, v := range assign {
		if v == xx {
			v = byte(rng.next() & 1)
		}
		if i < nPI {
			p.PI[i] = v
		} else {
			p.State[i-nPI] = v
		}
	}
	return p
}

// detect runs sims[w].Detect on the w-th of len(sims) contiguous shares
// of the faults, all shares at once, and returns the number of faults
// newly detected. It is exact: a fault's first detecting pattern does
// not depend on the other faults.
func detect(sims []*fsim.Simulator, pats []gate.Pattern, faults []gate.Fault, by []int) (int, error) {
	found := make([]int, len(sims))
	err := fanout.Each(context.Background(), len(sims), len(sims), func(w int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("atpg: fault simulation panicked: %v\n%s", r, debug.Stack())
			}
		}()
		lo, hi := w*len(faults)/len(sims), (w+1)*len(faults)/len(sims)
		found[w], err = sims[w].Detect(pats, faults[lo:hi], by[lo:hi])
		return err
	})
	total := 0
	for _, f := range found {
		total += f
	}
	return total, err
}

// Compact keeps only patterns that detect new faults when the set is
// fault-simulated in reverse order (classic reverse-order compaction).
// It fails when the patterns cannot be simulated on n, for example when
// a pattern's PI or State width does not match the netlist.
func Compact(n *gate.Netlist, pats []gate.Pattern, faults []gate.Fault) ([]gate.Pattern, error) {
	sim, err := fsim.NewSimulator(n)
	if err != nil {
		return nil, err
	}
	return compact([]*fsim.Simulator{sim}, pats, faults)
}

// compact simulates the reversed list in one run with fault dropping and
// keeps each pattern that is the first detector of some fault: exactly
// the patterns that detect a fault none of their predecessors in reverse
// order detects. A set that detects nothing is returned unchanged.
func compact(sims []*fsim.Simulator, pats []gate.Pattern, faults []gate.Fault) ([]gate.Pattern, error) {
	rev := make([]gate.Pattern, len(pats))
	for i, p := range pats {
		rev[len(pats)-1-i] = p
	}
	by := make([]int, len(faults))
	for i := range by {
		by[i] = -1
	}
	if _, err := detect(sims, rev, faults, by); err != nil {
		return nil, fmt.Errorf("atpg: compact: %w", err)
	}
	first := make([]bool, len(rev))
	for _, b := range by {
		if b >= 0 {
			first[b] = true
		}
	}
	var kept []gate.Pattern
	for i, p := range rev {
		if first[i] {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return pats, nil
	}
	return kept, nil
}

type splitMix struct{ state uint64 }

func (r *splitMix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Package atpg generates full-scan combinational test patterns with the
// PODEM algorithm over a five-valued (good/faulty three-valued) algebra.
// It plays the role of the commercial combinational ATPG tool used in the
// paper's experiments (Section 6): each HSCAN/full-scan core is tested with
// patterns produced here, and the resulting vector counts feed the test
// application time model.
package atpg

import (
	"fmt"

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
	Detected   int
	Untestable int // proven redundant
	Aborted    int // backtrack limit exceeded
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

// GenerateFor runs test generation for an explicit fault list.
func GenerateFor(n *gate.Netlist, faults []gate.Fault, opts *Options) (*Result, error) {
	o := opts.withDefaults()
	eng, err := newEngine(n)
	if err != nil {
		return nil, err
	}
	sim, err := fsim.NewSimulator(n)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: Stats{Faults: len(faults)}}
	// by[i] >= 0 once faults[i] is detected. Only the random pre-pass
	// reads the value: the index of its pattern that detected the fault.
	// After it, only the sign is read.
	by := make([]int, len(faults))
	for i := range by {
		by[i] = -1
	}
	rng := splitMix{o.FillSeed}

	// Phase 1: random-pattern pre-pass with fault dropping. Patterns that
	// detect nothing first are discarded immediately.
	if o.RandomPatterns > 0 {
		rpats := make([]gate.Pattern, o.RandomPatterns)
		nPI := len(n.PIs())
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
		found, err := sim.Detect(rpats, faults, by)
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
	var word []gate.Pattern
	for fi, f := range faults {
		if by[fi] >= 0 {
			continue
		}
		if len(word) > 0 {
			if lane := sim.First(f); lane >= 0 {
				by[fi] = len(res.Patterns) - len(word) + lane
				res.Stats.Detected++
				continue
			}
		}
		outcome := eng.podem(f, o.BacktrackLimit)
		switch outcome {
		case outDetected:
			pat := eng.extractPattern(&rng)
			res.Patterns = append(res.Patterns, pat)
			by[fi] = len(res.Patterns) - 1
			res.Stats.Detected++
			word = append(word, pat)
			if len(word) < 64 {
				err = sim.Load(word)
			} else {
				var found int
				found, err = sim.Detect(word, faults[fi+1:], by[fi+1:])
				res.Stats.Detected += found
				word = word[:0]
			}
			if err != nil {
				return nil, err
			}
		case outUntestable:
			res.Stats.Untestable++
		case outAborted:
			res.Stats.Aborted++
		}
	}
	if o.Compact && len(res.Patterns) > 1 {
		if res.Patterns, err = compact(sim, res.Patterns, faults); err != nil {
			return nil, err
		}
	}
	res.Stats.Vectors = len(res.Patterns)
	obs.C("atpg.faults").Add(int64(res.Stats.Faults))
	obs.C("atpg.detected").Add(int64(res.Stats.Detected))
	obs.C("atpg.untestable").Add(int64(res.Stats.Untestable))
	obs.C("atpg.aborted_faults").Add(int64(res.Stats.Aborted))
	obs.C("atpg.vectors").Add(int64(res.Stats.Vectors))
	return res, nil
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
	return compact(sim, pats, faults)
}

// compact simulates the reversed list in one run with fault dropping and
// keeps each pattern that is the first detector of some fault: exactly
// the patterns that detect a fault none of their predecessors in reverse
// order detects. A set that detects nothing is returned unchanged.
func compact(sim *fsim.Simulator, pats []gate.Pattern, faults []gate.Fault) ([]gate.Pattern, error) {
	rev := make([]gate.Pattern, len(pats))
	for i, p := range pats {
		rev[len(pats)-1-i] = p
	}
	by := make([]int, len(faults))
	for i := range by {
		by[i] = -1
	}
	if _, err := sim.Detect(rev, faults, by); err != nil {
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

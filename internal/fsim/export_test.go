package fsim

import "repro/internal/gate"

// Load applies up to 64 patterns as one word, as Detect does.
func (s *Simulator) Load(pats []gate.Pattern) error { return s.load(pats) }

// Simulate returns the lanes of the loaded word in which the region
// simulator detects f.
func (s *Simulator) Simulate(f gate.Fault) uint64 { return s.simulate(f) }

// RefSimulate returns the lanes of the loaded word in which the
// per-fault reference detects f, exact up to the lowest one.
func (s *Simulator) RefSimulate(f gate.Fault) uint64 { return s.refSimulate(f, s.lanes) }

package fsim

import "repro/internal/gate"

// RefSimulate returns the lanes of the loaded word in which the
// per-fault reference detects f, exact up to the lowest one.
func (s *Simulator) RefSimulate(f gate.Fault) uint64 { return s.refSimulate(f, s.lanes) }

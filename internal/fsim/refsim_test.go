package fsim

import "repro/internal/gate"

// refSimulate is the per-fault simulator that the fanout-free-region
// code replaced, kept as the reference TestDetectMatchesReference checks
// simulate against. It propagates the fault's own divergence from its
// site to the observable lines, by events, level by level, and only
// while it differs from the good value in a lane of mask below the
// lowest lane already known to detect the fault. It returns the lanes
// of mask in which the fault is detected, down to the lowest one: lanes
// above a detecting lane stop being tracked.
func (s *Simulator) refSimulate(f gate.Fault, mask uint64) uint64 {
	s.cur++
	if s.cur == 0 { // the stamps wrapped: forget every old one
		clear(s.epoch)
		clear(s.queued)
		s.cur = 1
	}
	good := s.good.Val
	root := f.Line
	var v uint64
	if f.Branch < 0 {
		v = stuckWord(f.Stuck)
	} else {
		g := &s.n.Gates[root]
		if g.Type == gate.DFF {
			// Corrupted scan capture, observed directly.
			return (good[g.Fanin[0]] ^ stuckWord(f.Stuck)) & mask
		}
		// The victim gate sees a corrupted fanin.
		fan := g.Fanin[f.Branch]
		saved := good[fan]
		good[fan] = stuckWord(f.Stuck)
		v = s.eval(root)
		good[fan] = saved
	}
	d := (v ^ good[root]) & mask
	if d == 0 {
		return 0
	}
	var diff uint64
	if s.isObs[root] {
		diff = d
		if mask &= lowBelow(d); mask == 0 {
			return diff
		}
	}
	s.hi = 0
	s.diverge(root, v)
	for l := int(s.level[root]) + 1; l <= s.hi; l++ {
		for _, id := range s.buckets[l] {
			v := s.eval(int(id))
			d := (v ^ good[id]) & mask
			if d == 0 {
				continue
			}
			if s.isObs[id] {
				diff |= d
				if mask &= lowBelow(d); mask == 0 {
					break
				}
			}
			s.diverge(int(id), v)
		}
		s.buckets[l] = s.buckets[l][:0]
		if mask == 0 {
			for l++; l <= s.hi; l++ {
				s.buckets[l] = s.buckets[l][:0]
			}
		}
	}
	return diff
}

// lowBelow returns the lanes below the lowest set lane of d.
func lowBelow(d uint64) uint64 { return d&-d - 1 }

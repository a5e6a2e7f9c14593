package proptest

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/soc"
	"repro/internal/socgen"
)

// checkMetamorphic runs the relation-between-runs invariants. Chips whose
// ladder product fits maxEnumProduct get the exhaustive battery (version
// monotonicity by genuine ladder truncation, budget monotonicity over the
// enumerated front); every chip gets the improvement-walk bound. It runs
// last: Improve mutates the flow's selection.
func checkMetamorphic(f *core.Flow, ch *soc.Chip, st *Stats) error {
	prod := 1
	for _, c := range ch.TestableCores() {
		prod *= len(c.Versions)
	}
	minTAT := -1
	if prod <= maxEnumProduct {
		pts, err := explore.EnumerateCtx(context.Background(), f, explore.Options{})
		if err != nil {
			return fmt.Errorf("enumerate: %w", err)
		}
		st.Points += len(pts)
		if len(pts) != prod {
			return fmt.Errorf("enumerated %d points, ladder product is %d", len(pts), prod)
		}
		minTAT = explore.MinTATPoint(pts).TAT
		if err := checkBudgetMonotone(pts); err != nil {
			return err
		}
		if err := checkTruncation(f, ch, pts, minTAT); err != nil {
			return err
		}
	}
	return checkImproveBound(f, minTAT)
}

// checkBudgetMonotone asserts that tightening the chip-area budget never
// decreases the reachable min-TAT: over the enumerated front, the best
// TAT within budget must be non-increasing as the budget grows, and the
// Pareto front must itself be consistent with the full point set (every
// point dominated by or on the front).
func checkBudgetMonotone(pts []explore.Point) error {
	sorted := append([]explore.Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ChipCells < sorted[j].ChipCells })
	best := int(^uint(0) >> 1)
	prevBudget, prevBest := -1, best
	for _, p := range sorted {
		if p.ChipCells > prevBudget && prevBudget >= 0 {
			if best > prevBest {
				return fmt.Errorf("min-TAT within budget rose from %d to %d when the budget grew past %d cells",
					prevBest, best, prevBudget)
			}
			prevBest = best
		}
		prevBudget = p.ChipCells
		if p.TAT < best {
			best = p.TAT
		}
	}
	front := explore.Pareto(pts)
	for _, p := range pts {
		dominated := false
		for _, q := range front {
			if q.ChipCells <= p.ChipCells && q.TAT <= p.TAT {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("point %s (cells %d, TAT %d) escapes its own Pareto front", p.Label(), p.ChipCells, p.TAT)
		}
	}
	return nil
}

// checkTruncation is the "adding a faster version never increases
// min-TAT" invariant, realized as its contrapositive on a genuinely
// truncated chip: drop the widest ladder's last (fastest) version, fork
// the flow onto the truncated chip, and require (a) every shared
// selection evaluates to the identical TAT and DFT cell count, and (b)
// the truncated minimum is no better than the full ladder's.
func checkTruncation(f *core.Flow, ch *soc.Chip, pts []explore.Point, minTAT int) error {
	var tc *soc.Core
	for _, c := range ch.TestableCores() {
		if len(c.Versions) > 1 && (tc == nil || len(c.Versions) > len(tc.Versions)) {
			tc = c
		}
	}
	if tc == nil {
		return nil // every ladder is a single version; nothing to truncate
	}
	tch := truncatedChip(ch, tc.Name)
	tf := f.Fork(tch)
	last := len(tc.Versions) - 1
	shared, checked := 0, 0
	truncMin := -1
	for _, p := range pts {
		if p.Selection[tc.Name] >= last {
			continue
		}
		shared++
		if truncMin < 0 || p.TAT < truncMin {
			truncMin = p.TAT
		}
		if checked >= 12 {
			continue // bound the differential re-evaluations per chip
		}
		checked++
		et, err := tf.EvaluateSelection(p.Selection)
		if err != nil {
			return fmt.Errorf("truncated chip evaluation (%s): %w", p.Label(), err)
		}
		if et.TAT != p.TAT || et.ChipDFTCells() != p.ChipCells {
			return fmt.Errorf("truncating %s's unused fastest version changed point %s: TAT %d->%d, cells %d->%d",
				tc.Name, p.Label(), p.TAT, et.TAT, p.ChipCells, et.ChipDFTCells())
		}
	}
	if shared > 0 && truncMin < minTAT {
		return fmt.Errorf("dropping %s's fastest version improved min-TAT %d -> %d", tc.Name, minTAT, truncMin)
	}
	return nil
}

// truncatedChip clones the chip's core list with coreName's ladder one
// version shorter. Nets, RTL, scan results and the surviving versions are
// shared (read-only downstream).
func truncatedChip(ch *soc.Chip, coreName string) *soc.Chip {
	nch := *ch
	nch.Cores = make([]*soc.Core, len(ch.Cores))
	for i, c := range ch.Cores {
		nc := *c
		if c.Name == coreName {
			nc.Versions = c.Versions[:len(c.Versions)-1]
			if nc.Selected >= len(nc.Versions) {
				nc.Selected = len(nc.Versions) - 1
			}
		}
		nch.Cores[i] = &nc
	}
	return &nch
}

// checkImproveBound runs the greedy improvement walk under an unlimited
// area budget and asserts it never worsens the starting TAT, and — when
// the exhaustive enumeration ran and the walk placed no test muxes — that
// it cannot beat the enumerated optimum.
func checkImproveBound(f *core.Flow, minTAT int) error {
	start, err := f.Evaluate()
	if err != nil {
		return fmt.Errorf("improve baseline: %w", err)
	}
	if _, err := explore.ImproveCtx(context.Background(), f, explore.MinimizeTAT, int(^uint(0)>>1), explore.Options{}); err != nil {
		return fmt.Errorf("improve: %w", err)
	}
	end, err := f.Evaluate()
	if err != nil {
		return fmt.Errorf("improve result evaluation: %w", err)
	}
	if end.TAT > start.TAT {
		return fmt.Errorf("improvement walk worsened TAT %d -> %d", start.TAT, end.TAT)
	}
	if minTAT >= 0 && len(f.ForcedMuxes) == 0 && end.TAT < minTAT {
		return fmt.Errorf("improvement walk TAT %d beats the enumerated optimum %d without placing muxes", end.TAT, minTAT)
	}
	return nil
}

// Shrink minimizes a failing parameter set: given that Check(p) fails, it
// retries the same seed and shape at every smaller core count and returns
// the smallest parameters that still fail (p itself when no smaller chip
// reproduces). Deterministic generation makes the result a stable
// reproducer.
func Shrink(p socgen.Params) socgen.Params {
	n := p.Cores
	if n == 0 {
		if ch, err := socgen.Generate(p); err == nil {
			n = len(ch.TestableCores())
		}
	}
	for k := 2; k < n; k++ {
		q := p
		q.Cores = k
		if _, err := Check(q); err != nil {
			return q
		}
	}
	q := p
	q.Cores = n
	return q
}

// Tradeoff: design-space exploration with the Section 5 objectives.
//
// This example enumerates every combination of core transparency versions
// on System 1 (the Figure 10 curve), then runs the paper's iterative
// improvement twice: once minimizing test time under an area budget
// (objective i) and once minimizing area under a test-time budget
// (objective ii).
//
// Run with:
//
//	go run ./examples/tradeoff
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/systems"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	f, err := core.Prepare(systems.System1(), nil)
	if err != nil {
		log.Fatal(err)
	}

	points, err := explore.EnumerateCtx(ctx, f, explore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	front := explore.Pareto(points)
	fmt.Printf("design space: %d points, Pareto front:\n", len(points))
	for _, p := range front {
		fmt.Printf("  %5d cells  %8d cycles   %s\n", p.ChipCells, p.TAT, p.Label())
	}
	minTAT := explore.MinTATPoint(points)
	fmt.Printf("\nmin-area point: %d cells / %d cycles\n", points[0].ChipCells, points[0].TAT)
	fmt.Printf("min-TAT point:  %d cells / %d cycles (%s)\n", minTAT.ChipCells, minTAT.TAT, minTAT.Label())
	fmt.Printf("trade-off span: %.1fx test-time reduction for %d extra cells\n",
		float64(points[0].TAT)/float64(minTAT.TAT), minTAT.ChipCells-points[0].ChipCells)

	// Objective (i): minimize TAT within a +40-cell area budget.
	reset(f)
	e0, err := f.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	budget := e0.ChipDFTCells() + 40
	res, err := explore.ImproveCtx(ctx, f, explore.MinimizeTAT, budget, explore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobjective (i): min TAT within %d cells\n", budget)
	fmt.Printf("  start: %d cells / %d cycles\n", e0.ChipDFTCells(), e0.TAT)
	for _, s := range res.Steps {
		what := fmt.Sprintf("%s -> V%d", s.Core, s.Version+1)
		if s.MuxOn != "" {
			what = "test mux on " + s.MuxOn
		}
		fmt.Printf("  %-24s -> %d cells / %d cycles\n", what, s.ChipCells, s.TAT)
	}

	// Objective (ii): minimize area while meeting 60%% of the initial TAT.
	reset(f)
	target := e0.TAT * 6 / 10
	res2, err := explore.ImproveCtx(ctx, f, explore.MinimizeArea, target, explore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobjective (ii): min area with TAT <= %d cycles\n", target)
	for _, s := range res2.Steps {
		what := fmt.Sprintf("%s -> V%d", s.Core, s.Version+1)
		if s.MuxOn != "" {
			what = "test mux on " + s.MuxOn
		}
		fmt.Printf("  %-24s -> %d cells / %d cycles\n", what, s.ChipCells, s.TAT)
	}
	fmt.Printf("  final: %d cells / %d cycles\n", res2.Final.ChipDFTCells(), res2.Final.TAT)
}

func reset(f *core.Flow) {
	sel := map[string]int{}
	for _, c := range f.Chip.TestableCores() {
		sel[c.Name] = 0
	}
	f.SelectVersions(sel)
	f.ForcedMuxes = nil
}

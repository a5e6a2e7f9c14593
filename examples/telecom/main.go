// Telecom: System 2 (graphics processor + GCD + X25 protocol core)
// against every baseline.
//
// This example runs the SOCET flow on the paper's second evaluation system
// and compares it with the FSCAN-BSCAN and test-bus alternatives discussed
// in Section 1: area overhead, test application time, and what each
// approach can or cannot test.
//
// Run with:
//
//	go run ./examples/telecom
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bscan"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/systems"
	"repro/internal/testbus"
)

func main() {
	log.SetFlags(0)
	ch := systems.System2()
	f, err := core.Prepare(ch, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s cores:\n", ch.Name)
	for _, c := range ch.TestableCores() {
		art := f.Cores[c.Name]
		st := art.ATPG.Stats
		fmt.Printf("  %-10s %5d cells, %3d vectors, FC %.1f%%\n",
			c.Name, art.OrigCells(), c.Vectors, st.FaultCoverage())
	}

	points, err := explore.EnumerateCtx(context.Background(), f, explore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	minArea := points[0]
	minTAT := explore.MinTATPoint(points)

	bs := bscan.Evaluate(ch)
	tb := testbus.Evaluate(ch)

	fmt.Printf("\n%-22s %14s %14s\n", "approach", "DFT cells", "test cycles")
	fmt.Printf("%-22s %14d %14d\n", "FSCAN-BSCAN", bs.ScanCells()+bs.BscanCells(), bs.TotalTAT)
	fmt.Printf("%-22s %14d %14d\n", "test bus", tb.MuxCells(), tb.TotalTAT)
	fmt.Printf("%-22s %14d %14d\n", "SOCET (min area)", minArea.ChipCells, minArea.TAT)
	fmt.Printf("%-22s %14d %14d\n", "SOCET (min TAT)", minTAT.ChipCells, minTAT.TAT)

	fmt.Printf("\nnotes:\n")
	fmt.Printf("  - the test bus reaches every core directly (minimum possible TAT,\n")
	fmt.Printf("    Section 5.2's degenerate case) but cannot test the inter-core wires\n")
	fmt.Printf("    and pays a mux on every port bit;\n")
	fmt.Printf("  - SOCET's test data flows through the GRAPHICS -> GCD -> X25 pipeline\n")
	fmt.Printf("    itself, so the interconnect is exercised by every core test.\n")

	// Show the scheduled paths for the deepest core (X25 sits two cores
	// from the chip inputs).
	f.SelectVersions(minTAT.Selection)
	e, err := f.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nX25 test schedule at the min-TAT point:\n")
	for _, cs := range e.Sched.Cores {
		if cs.Core != "X25" {
			continue
		}
		fmt.Printf("  %d HSCAN vectors x %d-cycle period + %d tail = %d cycles\n",
			cs.HSCANVectors, cs.Period, cs.Tail, cs.TAT)
		for _, in := range cs.Inputs {
			fmt.Printf("    justify %-8s arrives at cycle %d\n", in.Port, in.Arrival)
		}
	}
}

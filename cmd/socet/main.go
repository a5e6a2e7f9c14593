// Command socet runs the full SOCET flow on one of the paper's example
// systems: core-level DFT (HSCAN + transparency versions + ATPG), chip
// level CCG construction and test scheduling, and prints the resulting
// area/test-time bottom line for the selected objective.
//
// Usage:
//
//	socet [-system 1|2] [-objective area|tat|none] [-budget N] [-v]
//	      [-timeout 30s]
//	      [-fault "cut:FROM->TO,opaque:CORE,slow:CORE:K,noscan:CORE"]
//	      [-trace out.ndjson] [-metrics out.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -v, a per-phase wall-time summary of the whole flow is printed
// from the recorded spans (tracing is switched on automatically).
//
// With -fault, the listed faults are injected into a copy of the chip and
// the flow evaluates the damaged copy gracefully: the bottom line covers
// the still-testable subset and a degradation report names what was lost
// and why (see internal/resil).
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/flowcmd"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/resil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("socet: ")
	system := flag.Int("system", 1, "example system to run (1 = barcode, 2 = graphics/GCD/X25)")
	objective := flag.String("objective", "none", "selection objective: tat (min TAT under area budget), area (min area under TAT budget), none (min-area versions)")
	budget := flag.Int("budget", 0, "budget for the objective (cells for -objective tat, cycles for -objective area)")
	verbose := flag.Bool("v", false, "print per-core details and a per-phase timing summary")
	fault := flag.String("fault", "", "inject faults (comma-separated: cut:FROM->TO, opaque:CORE, slow:CORE[:K], noscan:CORE) and evaluate gracefully")
	timeout := flowcmd.AddTimeout(flag.CommandLine)
	obsCfg := obscli.AddFlags(flag.CommandLine)
	flag.Parse()
	ctx, cancel := flowcmd.Context(*timeout)
	defer cancel()

	sess, serr := obsCfg.Start()
	if serr != nil {
		log.Fatal(serr)
	}
	defer sess.Close()
	if *verbose && !obs.Enabled() {
		// -v wants the timing summary even without -trace/-metrics.
		obs.Enable(obsCfg.TraceCap)
	}

	ch, err := flowcmd.System(*system)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SOCET flow on %s\n", ch.Name)
	f, err := core.Prepare(ch, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range ch.TestableCores() {
		art := f.Cores[c.Name]
		st := art.ATPG.Stats
		fmt.Printf("  %-14s %5d cells, %2d scan chains (depth %d), %d versions, %3d vectors, FC %.1f%%, TEff %.1f%%\n",
			c.Name, art.OrigCells(), len(c.Scan.Chains), c.Scan.MaxDepth, len(c.Versions), c.Vectors,
			st.FaultCoverage(), st.TestEfficiency())
	}

	switch *objective {
	case "tat":
		b := *budget
		if b == 0 {
			b = 1 << 30
		}
		res, err := explore.ImproveCtx(ctx, f, explore.MinimizeTAT, b, explore.Options{})
		if err != nil {
			log.Fatal(err)
		}
		printSteps(res)
	case "area":
		if *budget == 0 {
			log.Fatal("-objective area needs -budget cycles")
		}
		res, err := explore.ImproveCtx(ctx, f, explore.MinimizeArea, *budget, explore.Options{})
		if err != nil {
			log.Fatal(err)
		}
		printSteps(res)
	case "none":
	default:
		log.Fatalf("unknown objective %q", *objective)
	}

	var e *core.Evaluation
	var report *core.DegradationReport
	if *fault != "" {
		faults, err := resil.ParseFaults(f.Chip, *fault)
		if err != nil {
			log.Fatal(err)
		}
		damaged, err := resil.Inject(f.Chip, faults...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ninjected faults: %s\n", resil.FaultSetString(faults))
		dev, err := f.Fork(damaged).EvaluateDegradedCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}
		e, report = dev.Evaluation, dev.Report
	} else {
		e, err = f.EvaluateCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nchip-level result:\n")
	fmt.Printf("  transparency logic: %5d cells\n", e.TransCells)
	fmt.Printf("  system test muxes:  %5d cells\n", e.MuxCells)
	fmt.Printf("  test controller:    %5d cells (%d states)\n", e.CtrlCells, e.Controller.States)
	fmt.Printf("  chip DFT total:     %5d cells (%.1f%% of %d original)\n",
		e.ChipDFTCells(), core.Percent(e.ChipDFTCells(), f.OrigCells()), f.OrigCells())
	fmt.Printf("  test application:   %5d cycles (logic cores)\n", e.TAT)
	if e.BISTCycles > 0 {
		fmt.Printf("  memory BIST:        %5d cycles (concurrent)\n", e.BISTCycles)
	}
	if report != nil {
		fmt.Printf("\n%s", report.Format())
	} else if cands := explore.Candidates(f, e, explore.Cost{W1: 1}); len(cands) > 0 {
		best := cands[0]
		fmt.Printf("  explorer:           %d candidate version upgrades (best: %s -> V%d, est. dTAT %d, dA %d)\n",
			len(cands), best.Core, best.Version+1, best.DeltaTAT, best.DeltaArea)
	}
	if *verbose {
		fmt.Printf("\nper-core schedule:\n")
		for _, cs := range e.Sched.Cores {
			fmt.Printf("  %-14s %d HSCAN vectors x %d-cycle period + %d tail = %d cycles\n",
				cs.Core, cs.HSCANVectors, cs.Period, cs.Tail, cs.TAT)
			for _, in := range cs.Inputs {
				mux := ""
				if in.AddedMux {
					mux = " (test mux)"
				}
				fmt.Printf("      justify %-10s arrival %2d%s\n", in.Port, in.Arrival, mux)
			}
			for _, out := range cs.Outputs {
				mux := ""
				if out.AddedMux {
					mux = " (test mux)"
				}
				fmt.Printf("      observe %-10s latency %2d%s\n", out.Port, out.Arrival, mux)
			}
		}
		if t := obs.T(); t != nil {
			fmt.Printf("\nper-phase timing:\n%s", obs.FormatSummary(obs.Summarize(t.Records())))
		}
	}
}

func printSteps(res *explore.Result) {
	fmt.Printf("\niterative improvement:\n")
	for i, s := range res.Steps {
		if s.MuxOn != "" {
			fmt.Printf("  step %d: test mux on %s -> TAT %d, chip DFT %d cells\n", i+1, s.MuxOn, s.TAT, s.ChipCells)
			continue
		}
		fmt.Printf("  step %d: %s -> Version %d (dTAT %d, dA %d) -> TAT %d, chip DFT %d cells\n",
			i+1, s.Core, s.Version+1, s.DeltaTAT, s.DeltaArea, s.TAT, s.ChipCells)
	}
	if len(res.Steps) == 0 {
		fmt.Printf("  (no moves: constraints already met)\n")
	}
}

// Command compare regenerates Tables 2 and 3: the area-overhead and
// testability comparison between SOCET and the FSCAN-BSCAN baseline, for
// both example systems.
//
// Usage:
//
//	compare [-system 1|2|0]   (0 = both)
//	compare -table2 | -table3 (default: both tables)
//	compare -timeout 30s      (partial Pareto front on expiry)
//	compare -fault "cut:FROM->TO,..."  (degradation report per system)
//	compare -campaign 100 -campaign-size 2 -campaign-seed 7
//	compare -arch wrapper -tam-width 4   (wrapped-core/TAM baseline)
//	compare -arch all                    (SOCET vs wrapper vs test bus)
//	compare -study                       (corpus study over socgen chips)
//
// -campaign runs a seeded random fault-injection campaign per system and
// prints its report instead of the tables. Campaigns accept the shard
// flags (-shards, -shard-index, -checkpoint, -resume): each shard owns a
// deterministic slice of the fault sets and checkpoints completed runs,
// and the merged report is identical to the single-process one.
//
// -arch selects the chip-level test architecture: socet (default, the
// paper's tables), wrapper (P1500-style wrapped cores on a TAM of width
// -tam-width), bus (dedicated test bus), or all (the three side by side).
// -study ignores -system and runs the SOCET-vs-wrapper-vs-bus comparison
// over seeded socgen chips across every topology family (-study-cores,
// -study-widths, -study-seed); the output is deterministic, so the table
// in EXPERIMENTS.md regenerates byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/flowcmd"
	"repro/internal/obs/obscli"
	"repro/internal/report"
	"repro/internal/resil"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("compare: ")
	system := flag.Int("system", 0, "system to compare (1, 2, or 0 for both)")
	t2only := flag.Bool("table2", false, "print only Table 2")
	t3only := flag.Bool("table3", false, "print only Table 3")
	cycles := flag.Int("cycles", 192, "random functional cycles for the sequential columns")
	sample := flag.Int("sample", 1500, "sampled faults for the sequential columns")
	jobs := flag.Int("j", 0, "parallel evaluation workers (0 = GOMAXPROCS); output is identical at any count")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on each enumeration (0 = none); on expiry the partial Pareto front is printed instead of the tables")
	fault := flag.String("fault", "", "inject faults (see socet -fault) and print each system's degradation report")
	campaign := flag.Int("campaign", 0, "run a random fault-injection campaign of `n` sets per system (instead of the tables)")
	campaignSize := flag.Int("campaign-size", 2, "faults per campaign set")
	campaignSeed := flag.Int64("campaign-seed", 1, "campaign fault-set seed")
	arch := flag.String("arch", "socet", "test architecture: socet (the tables), wrapper, bus, or all (side-by-side comparison)")
	tamWidth := flag.Int("tam-width", 4, "TAM width W for -arch wrapper/all")
	study := flag.Bool("study", false, "run the SOCET vs wrapper vs bus corpus study over socgen chips (ignores -system)")
	studyCores := flag.String("study-cores", "8,32,128,256", "comma-separated core counts for -study")
	studyWidths := flag.String("study-widths", "1,4,16", "comma-separated TAM widths for -study")
	studySeed := flag.Uint64("study-seed", 1, "generator seed for -study")
	obsCfg := obscli.AddFlags(flag.CommandLine)
	obsCfg.AddProgressFlag(flag.CommandLine)
	shardCfg := shard.AddFlags(flag.CommandLine)
	flag.Parse()
	sess, err := obsCfg.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	archName, err := flowcmd.ParseArch(*arch)
	if err != nil {
		log.Fatal(err)
	}
	if *study {
		runStudy(*studySeed, *studyCores, *studyWidths, *jobs)
		return
	}
	chips, err := flowcmd.Systems(*system)
	if err != nil {
		log.Fatal(err)
	}
	if *campaign > 0 && shardCfg.Active() && len(chips) > 1 {
		log.Fatal("sharded campaigns checkpoint per chip: pick -system 1 or -system 2")
	}
	both := !*t2only && !*t3only
	for _, ch := range chips {
		f, err := core.Prepare(ch, nil)
		if err != nil {
			log.Fatal(err)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if *campaign > 0 {
			runCampaign(ctx, f, shardCfg, *campaign, *campaignSize, *campaignSeed)
			continue
		}
		if archName != flowcmd.ArchSOCET {
			printArch(f, archName, *tamWidth)
			continue
		}
		points, err := explore.EnumerateCtx(ctx, f, explore.Options{Workers: *jobs})
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// Out of time: the completed points still form a consistent
			// partial sample — print its Pareto front instead of tables
			// built on an incomplete design space.
			front := explore.Pareto(points)
			log.Printf("%s: timeout %v expired after %d design points; partial Pareto front:", ch.Name, *timeout, len(points))
			for _, p := range front {
				fmt.Printf("  %-40s %6d cells  %7d cycles\n", p.Label(), p.ChipCells, p.TAT)
			}
			printDegradation(f, *fault)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		if both || *t2only {
			t2, err := report.MakeTable2(f, points)
			if err != nil {
				log.Fatal(err)
			}
			printTable2(t2)
		}
		if both || *t3only {
			t3, err := report.MakeTable3(f, points, &report.Table3Options{Cycles: *cycles, FaultSample: *sample})
			if err != nil {
				log.Fatal(err)
			}
			printTable3(t3)
		}
		printDegradation(f, *fault)
	}
}

// printArch prints the selected architecture's bottom line; the wrapper
// architecture additionally prints its per-core chain balancing, which
// the golden test pins.
func printArch(f *core.Flow, arch string, tamWidth int) {
	rows, err := flowcmd.ArchRows(f, arch, tamWidth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Test architectures — %s\n", f.Chip.Name)
	fmt.Printf("  %-8s %9s %10s  %s\n", "arch", "TApp", "DFT cells", "access")
	for _, r := range rows {
		fmt.Printf("  %-8s %9d %10d  %s\n", r.Arch, r.TAT, r.DFTCells, r.Detail)
	}
	if arch == flowcmd.ArchWrapper {
		fmt.Print(f.EvaluateWrapper(tamWidth, nil).Format())
	}
	fmt.Println()
}

// runCampaign executes a seeded fault-injection campaign through the
// crash-safe shard runner and prints its report. The report is the
// deterministic merge of whatever shards ran; with every set complete it
// is byte-identical to a single-process campaign, so golden diffs work
// across any partitioning. Incomplete campaigns print what they have,
// attribute the missing sets, and exit non-zero.
func runCampaign(ctx context.Context, f *core.Flow, cfg *shard.Flags, n, size int, seed int64) {
	c := &resil.Campaign{Flow: f, Runs: resil.RandomSets(f.Chip, n, size, seed), Seed: seed}
	res, err := shard.RunCampaign(ctx, c, cfg.Options())
	if res == nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report.Format())
	if err != nil || len(res.Incomplete) > 0 {
		for _, r := range res.Incomplete {
			log.Printf("missing fault sets [%d,%d)", r.Lo, r.Hi)
		}
		if err != nil {
			log.Printf("campaign incomplete: %v", err)
		}
		os.Exit(1)
	}
}

// printDegradation injects the -fault spec (if any) into a copy of the
// flow's chip and prints the resulting degradation report. Faults naming
// nets or cores absent from this system are reported and skipped, so one
// spec can run against -system 0.
func printDegradation(f *core.Flow, spec string) {
	if spec == "" {
		return
	}
	faults, err := resil.ParseFaults(f.Chip, spec)
	if err != nil {
		log.Printf("%s: fault spec does not apply: %v", f.Chip.Name, err)
		return
	}
	damaged, err := resil.Inject(f.Chip, faults...)
	if err != nil {
		log.Fatal(err)
	}
	// Not the enumeration's context: the report also prints after
	// -timeout cut the enumeration short.
	dev, err := f.Fork(damaged).EvaluateDegradedCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %s: TApp %d cycles over testable subset\n%s\n",
		resil.FaultSetString(faults), dev.TAT, dev.Report.Format())
}

func printTable2(t *report.Table2) {
	fmt.Printf("Table 2: area overheads — %s (orig. %d cells; %% of original area)\n", t.System, t.OrigCells)
	fmt.Printf("  core-level DFT:   FSCAN %5.1f%%   HSCAN %5.1f%%\n", t.FscanPct, t.HscanPct)
	fmt.Printf("  chip-level DFT:   BSCAN %5.1f%%   SOCET min-area %5.1f%%   SOCET min-TApp %5.1f%%\n",
		t.BscanPct, t.SocetMinAreaPct, t.SocetMinTATPct)
	fmt.Printf("  core+chip total:  FSCAN-BSCAN %5.1f%%   SOCET min-area %5.1f%%   SOCET min-TApp %5.1f%%\n\n",
		t.FscanBscanTotalPct, t.SocetMinAreaTotalPct, t.SocetMinTATTotalPct)
}

func printTable3(t *report.Table3) {
	fmt.Printf("Table 3: testability results — %s\n", t.System)
	fmt.Printf("  %-22s FC %5.1f%%  TEff %5.1f%%\n", "original (no DFT):", t.OrigFC, t.OrigTEff)
	fmt.Printf("  %-22s FC %5.1f%%  TEff %5.1f%%\n", "HSCAN cores only:", t.HscanFC, t.HscanTEff)
	fmt.Printf("  %-22s FC %5.1f%%  TEff %5.1f%%  TApp %7d cycles\n",
		"FSCAN-BSCAN:", t.FscanBscanFC, t.FscanBscanTEff, t.FscanBscanTAT)
	fmt.Printf("  %-22s FC %5.1f%%  TEff %5.1f%%  TApp %7d (min area) / %d (min TApp) cycles\n\n",
		"SOCET:", t.SocetFC, t.SocetTEff, t.SocetMinArea, t.SocetMinTAT)
}

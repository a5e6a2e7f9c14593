// Command tradeoff regenerates Figure 10 (the test-application-time versus
// area-overhead curve over all core-version combinations) and Table 1 (the
// design-space exploration rows) for one of the example systems.
//
// Usage:
//
//	tradeoff [-system 1|2] [-pareto] [-timeout 30s]
//	tradeoff -gen -cores 64 -seed 7 [-topology dag] [-max-points 20000]
//	tradeoff -arch wrapper [-tam-widths 1,2,4,8,16]
//
// With -arch wrapper the command sweeps the wrapped-core/TAM baseline
// (internal/wrap) over the -tam-widths list instead of enumerating
// version selections: one row per TAM width W with the bus count, chip
// test time and DFT cell cost, exposing the same width-vs-time tradeoff
// curve Figure 10 shows for SOCET versions.
//
// With -timeout, an enumeration that runs out of time prints the Pareto
// front of the points completed so far instead of failing. With -gen the
// chip is a seeded random SoC (internal/socgen) instead of an example
// system; since the version ladder of a generated chip explodes
// combinatorially, -max-points caps the enumeration at a deterministic
// prefix of the design space. Live observability: -progress prints
// one-line status updates, -obs-listen serves /metrics, /progress (SSE)
// and /trace over HTTP while the enumeration runs.
//
// Long sweeps can be partitioned and made crash-safe (internal/shard):
//
//	tradeoff -gen -seed 7 -shards 8 -shard-index 3 -checkpoint /tmp/sweep -resume
//
// Each shard owns a deterministic slice of the selection space and
// checkpoints its completed ranges; re-running with -resume skips
// finished work, and -shard-index -1 runs (or, with complete
// checkpoints, merely merges) every shard in one process. The printed
// front is identical for any shard count.
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
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tradeoff: ")
	system := flag.Int("system", 1, "example system (1 or 2)")
	pareto := flag.Bool("pareto", false, "print only the Pareto front")
	jobs := flag.Int("j", 0, "parallel evaluation workers (0 = GOMAXPROCS); output is identical at any count")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on the enumeration (0 = none); on expiry the partial Pareto front is printed")
	maxPoints := flag.Int("max-points", 0, "cap the enumeration at `n` design points (0 = all); the capped set is a deterministic prefix")
	gen := flag.Bool("gen", false, "explore a seeded random SoC (internal/socgen) instead of an example system")
	seed := flag.Uint64("seed", 1, "generator seed (with -gen)")
	cores := flag.Int("cores", 0, "generated logic core count, 0 = derived from the seed (with -gen)")
	topology := flag.String("topology", "auto", "generated interconnect family: auto, chain, mesh, dag, hub (with -gen)")
	arch := flag.String("arch", "socet", "architecture to sweep: socet (version enumeration) or wrapper (TAM width sweep)")
	tamWidths := flag.String("tam-widths", "1,2,4,8,16", "comma-separated TAM widths for -arch wrapper")
	obsCfg := obscli.AddFlags(flag.CommandLine)
	obsCfg.AddProgressFlag(flag.CommandLine)
	shardCfg := shard.AddFlags(flag.CommandLine)
	flag.Parse()
	sess, err := obsCfg.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	spec := flowcmd.ChipSpec{System: *system}
	if *gen {
		spec = flowcmd.ChipSpec{Gen: &flowcmd.GenSpec{Seed: *seed, Cores: *cores, Topology: *topology}}
	}
	ch, opts, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	f, err := core.Prepare(ch, opts)
	if err != nil {
		log.Fatal(err)
	}
	archName, err := flowcmd.ParseArch(*arch)
	if err != nil {
		log.Fatal(err)
	}
	if archName == flowcmd.ArchWrapper {
		sweepTAMWidths(f, *tamWidths)
		return
	}
	if archName != flowcmd.ArchSOCET {
		log.Fatalf("-arch %s has no tradeoff curve to sweep; use socet or wrapper", archName)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if shardCfg.Active() {
		runSharded(ctx, f, ch.Name, shardCfg, *jobs, *maxPoints)
		return
	}
	points, err := explore.EnumerateCtx(ctx, f, explore.Options{Workers: *jobs, MaxPoints: *maxPoints})
	expired := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	if err != nil && !expired {
		log.Fatal(err)
	}
	if expired {
		if len(points) == 0 {
			log.Fatalf("timeout %v expired before any design point completed", *timeout)
		}
		log.Printf("timeout %v expired: %d design points completed; printing the partial Pareto front", *timeout, len(points))
		fmt.Printf("Figure 10 (PARTIAL, timed out): test application time vs. chip-level DFT area (%s, %d design points)\n\n",
			ch.Name, len(points))
		points = explore.Pareto(points)
		fmt.Printf("(partial Pareto front: %d points)\n", len(points))
	} else {
		fmt.Printf("Figure 10: test application time vs. chip-level DFT area (%s, %d design points)\n\n",
			ch.Name, len(points))
		if *pareto {
			points = explore.Pareto(points)
			fmt.Printf("(Pareto front: %d points)\n", len(points))
		}
	}
	fmt.Print(report.FormatFigure10(report.Figure10(points)))
	if expired {
		return
	}

	fmt.Printf("\nTable 1: design space exploration for %s\n", ch.Name)
	fmt.Printf("%-58s %8s %9s %6s %6s\n", "Circuit description", "A.Ov.", "TApp.", "FCov.", "TEff.")
	for _, r := range report.Table1(f, points) {
		fmt.Printf("%-58s %8d %9d %5.1f%% %5.1f%%\n", r.Desc, r.AreaOv, r.TATime, r.FCov, r.TestEff)
	}
}

// sweepTAMWidths prints the wrapped-core/TAM width-versus-time tradeoff
// curve: one row per TAM width in the CSV list. The schedule TAT is
// non-increasing in width (internal/wrap proves this per width by
// minimizing over bus counts), so the curve is the wrapper analogue of
// the SOCET Pareto front.
func sweepTAMWidths(f *core.Flow, widthsCSV string) {
	widths, err := flowcmd.ParseIntList(widthsCSV)
	if err != nil {
		log.Fatalf("-tam-widths: %v", err)
	}
	fmt.Printf("Wrapper/TAM width sweep — %s\n", f.Chip.Name)
	fmt.Printf("  %5s %6s %9s %10s  %s\n", "W", "buses", "TApp", "DFT cells", "bus layout")
	for _, w := range widths {
		r := f.EvaluateWrapper(w, nil)
		layout := ""
		for b, bw := range r.BusWidths {
			if b > 0 {
				layout += " "
			}
			layout += fmt.Sprintf("%dw×%dc", bw, len(r.Buses[b]))
		}
		fmt.Printf("  %5d %6d %9d %10d  [%s]\n", w, r.NumBuses, r.ChipTAT, r.DFTCells(), layout)
	}
}

// runSharded runs the enumeration through the crash-safe shard runner.
// Complete runs print the canonical Pareto front — byte-identical for
// any shard count, so golden diffs work across partitionings. A run
// that could not finish (timeout, or a shard whose evaluations failed)
// prints what it has, attributes the missing ranges, and exits non-zero.
func runSharded(ctx context.Context, f *core.Flow, chip string, cfg *shard.Flags, jobs, maxPoints int) {
	opts := cfg.Options()
	opts.Workers = jobs
	opts.MaxPoints = maxPoints
	res, err := shard.RunExplore(ctx, f, opts)
	if res == nil {
		log.Fatal(err)
	}
	complete := err == nil && len(res.Incomplete) == 0
	if complete {
		fmt.Printf("Sharded sweep: %s, Pareto front over %d selections\n\n", chip, res.Total)
	} else {
		fmt.Printf("Sharded sweep: %s, PARTIAL Pareto front over %d/%d selections\n\n", chip, res.Done, res.Total)
	}
	for _, p := range res.Front {
		fmt.Printf("%-40s %6d cells  %7d cycles\n", p.Label(), p.Cells, p.TAT)
	}
	if !complete {
		for _, r := range res.Incomplete {
			log.Printf("missing selections [%d,%d)", r.Lo, r.Hi)
		}
		if err != nil {
			log.Printf("sharded sweep incomplete: %v", err)
		}
		os.Exit(1)
	}
}

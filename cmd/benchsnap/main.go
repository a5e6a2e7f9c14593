// Command benchsnap maintains the repo's perf trajectory: it parses
// `go test -bench` output into a structured BENCH_<n>.json snapshot,
// validates a snapshot's schema, and diffs two snapshots against a
// regression threshold. scripts/bench.sh drives it; see the README's
// "Benchmark trajectory" section.
//
// Usage:
//
//	go test -bench=. | benchsnap -parse -rev $(git rev-parse --short HEAD) \
//	    -date 2026-08-07 -out BENCH_1.json
//	benchsnap -check BENCH_1.json
//	benchsnap -diff BENCH_0.json,BENCH_1.json -threshold 0.25
//
// The capture date and revision are flags, never read from the clock or
// the repo, so the same raw input always produces the same snapshot on
// one host. -parse records the host's CPU count (runtime.NumCPU), so it
// runs on the host that ran the benchmarks.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/obs/benchjson"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsnap: ")
	parse := flag.Bool("parse", false, "parse `go test -bench` output from stdin (or -in) into a snapshot")
	in := flag.String("in", "", "input `file` for -parse (default stdin)")
	out := flag.String("out", "", "output `file` for -parse (default stdout)")
	rev := flag.String("rev", "", "git revision recorded in the snapshot (required with -parse)")
	date := flag.String("date", "", "capture date recorded in the snapshot (required with -parse)")
	check := flag.String("check", "", "validate the snapshot `file`'s schema and exit")
	diff := flag.String("diff", "", "compare two snapshots, `old.json,new.json`; exits 1 on regression")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional ns/op slowdown for -diff (0.25 = 25%)")
	floor := flag.Float64("floor", 0, "noise floor in `ns/op`: baselines faster than this are skipped by -diff, not compared")
	flag.Parse()

	modes := 0
	for _, on := range []bool{*parse, *check != "", *diff != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		log.Fatal("exactly one of -parse, -check, -diff is required")
	}
	switch {
	case *parse:
		if err := runParse(*in, *out, *rev, *date); err != nil {
			log.Fatal(err)
		}
	case *check != "":
		snap, err := load(*check)
		if err != nil {
			log.Fatal(err)
		}
		if err := snap.Validate(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: schema %d, %d benchmarks, rev %s, date %s\n",
			*check, snap.Schema, len(snap.Results), snap.Rev, snap.Date)
	case *diff != "":
		parts := strings.Split(*diff, ",")
		if len(parts) != 2 {
			log.Fatal("-diff wants old.json,new.json")
		}
		if err := runDiff(parts[0], parts[1], *threshold, *floor); err != nil {
			log.Fatal(err)
		}
	}
}

func runParse(in, out, rev, date string) error {
	if rev == "" || date == "" {
		return fmt.Errorf("-parse requires -rev and -date (snapshots are clock-free by design)")
	}
	var src io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	snap, err := benchjson.Parse(src)
	if err != nil {
		return err
	}
	snap.Rev, snap.Date, snap.CPUs = rev, date, runtime.NumCPU()
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("parsed output is not a valid snapshot: %w", err)
	}
	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	return snap.Encode(dst)
}

func runDiff(oldPath, newPath string, threshold, floor float64) error {
	oldSnap, err := load(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := load(newPath)
	if err != nil {
		return err
	}
	rep, err := benchjson.DiffFloor(oldSnap, newSnap, threshold, floor)
	if err != nil {
		return err
	}
	fmt.Print(rep.Format(threshold))
	if len(rep.Regressions) > 0 {
		return fmt.Errorf("%d benchmark regressions above the %.0f%% threshold", len(rep.Regressions), threshold*100)
	}
	return nil
}

func load(path string) (*benchjson.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchjson.Decode(f)
}

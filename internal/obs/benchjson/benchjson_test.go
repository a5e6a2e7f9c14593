package benchjson

import (
	"bytes"
	"strings"
	"testing"
)

// fixture mirrors real `go test -bench -benchmem` output: goos/pkg
// headers, custom ReportMetric units, log noise, a PASS trailer.
const fixture = `goos: linux
goarch: amd64
pkg: repro
BenchmarkFig10Tradeoff-16         	     151	   7403551 ns/op	   24 design-points	 17387 min-area-TAT-cycles	 2112256 B/op	   24196 allocs/op
BenchmarkGeneratedChip/cores=8-16 	    1024	   1031337 ns/op	  4119 TAT-cycles	      21 nets	  524288 B/op	    4096 allocs/op
BenchmarkGeneratedChip/cores=64-16	      10	 104857600 ns/op	 33280 TAT-cycles	     190 nets	 8388608 B/op	   65536 allocs/op
--- BENCH: BenchmarkFig10Tradeoff-16
    bench_test.go:206: Figure 10 (paper: 18 points, ~4.5x TAT reduction)
PASS
pkg: repro/internal/explore
BenchmarkEnumerateSerial-16       	     168	   7112345 ns/op
BenchmarkEnumerateCached-16       	   14025	     84210 ns/op	   12288 B/op	     192 allocs/op
PASS
ok  	repro/internal/explore	3.021s
`

// fixture1x is a -benchtime=1x run without -benchmem: one iteration,
// no B/op or allocs/op columns.
const fixture1x = `pkg: repro
BenchmarkDegradationCampaign-16   	       1	 152000000 ns/op	  0.9471 mean-coverage-k1	  0.8517 mean-coverage-k3
PASS
`

func TestParseFixture(t *testing.T) {
	snap, err := Parse(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GoOS != "linux" || snap.GoArch != "amd64" {
		t.Fatalf("goos/goarch not captured: %+v", snap)
	}
	if len(snap.Results) != 5 {
		t.Fatalf("parsed %d results, want 5", len(snap.Results))
	}
	byKey := map[string]Result{}
	for _, r := range snap.Results {
		byKey[r.Key()] = r
	}
	fig, ok := byKey["repro.BenchmarkFig10Tradeoff"]
	if !ok {
		t.Fatalf("Fig10 result missing; have %v", keys(byKey))
	}
	if fig.Procs != 16 || fig.Iterations != 151 || fig.NsPerOp != 7403551 {
		t.Fatalf("Fig10 parsed wrong: %+v", fig)
	}
	if fig.BytesPerOp == nil || *fig.BytesPerOp != 2112256 || fig.AllocsPerOp == nil || *fig.AllocsPerOp != 24196 {
		t.Fatalf("Fig10 benchmem columns wrong: %+v", fig)
	}
	if fig.Metrics["design-points"] != 24 || fig.Metrics["min-area-TAT-cycles"] != 17387 {
		t.Fatalf("Fig10 custom metrics wrong: %+v", fig.Metrics)
	}
	gen, ok := byKey["repro.BenchmarkGeneratedChip/cores=64"]
	if !ok || gen.Metrics["TAT-cycles"] != 33280 {
		t.Fatalf("sub-benchmark wrong: %+v", gen)
	}
	ser, ok := byKey["repro/internal/explore.BenchmarkEnumerateSerial"]
	if !ok {
		t.Fatal("second pkg's benchmark missing")
	}
	if ser.BytesPerOp != nil || ser.AllocsPerOp != nil {
		t.Fatalf("B/op invented for a non-benchmem line: %+v", ser)
	}
}

func TestParseOneIterationNoBenchmem(t *testing.T) {
	snap, err := Parse(strings.NewReader(fixture1x))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Iterations != 1 || r.NsPerOp != 152000000 {
		t.Fatalf("1x parse wrong: %+v", r)
	}
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Fatalf("missing columns should stay nil: %+v", r)
	}
	if r.Metrics["mean-coverage-k1"] != 0.9471 {
		t.Fatalf("float metric wrong: %+v", r.Metrics)
	}
}

func TestParseRejectsMalformedResultLine(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkBroken-8\t100\t12 ns/op\t7 B/op extra\n")); err == nil {
		t.Fatal("odd value/unit pairing accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkBroken-8\t100\tNaNx ns/op\n")); err == nil {
		t.Fatal("unparseable value accepted")
	}
	// Prose starting with "Benchmark" (e.g. -v test names) is skipped.
	snap, err := Parse(strings.NewReader("BenchmarkFoo\n=== RUN BenchmarkFoo\n"))
	if err != nil || len(snap.Results) != 0 {
		t.Fatalf("prose not skipped: %v %+v", err, snap.Results)
	}
}

func TestEncodeDecodeStable(t *testing.T) {
	snap, err := Parse(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	snap.Rev, snap.Date = "abc1234", "2026-08-07"
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := snap.Encode(&a); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}
	if err := back.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("encode not stable:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestValidateCatchesBrokenSnapshots(t *testing.T) {
	good, _ := Parse(strings.NewReader(fixture))
	good.Rev, good.Date = "r", "d"
	cases := map[string]func(*Snapshot){
		"wrong schema":   func(s *Snapshot) { s.Schema = 99 },
		"missing rev":    func(s *Snapshot) { s.Rev = "" },
		"no results":     func(s *Snapshot) { s.Results = nil },
		"zero iters":     func(s *Snapshot) { s.Results[0].Iterations = 0 },
		"duplicate name": func(s *Snapshot) { s.Results = append(s.Results, s.Results[0]) },
	}
	for name, breakIt := range cases {
		s, _ := Parse(strings.NewReader(fixture))
		s.Rev, s.Date = "r", "d"
		breakIt(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good snapshot failed: %v", err)
	}
}

func TestDiffSelfIsZeroRegressions(t *testing.T) {
	snap, _ := Parse(strings.NewReader(fixture))
	snap.Rev, snap.Date = "r", "d"
	rep, err := DiffFloor(snap, snap, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("self-diff found %d regressions", len(rep.Regressions))
	}
	if len(rep.Deltas) != len(snap.Results) {
		t.Fatalf("self-diff compared %d of %d benchmarks", len(rep.Deltas), len(snap.Results))
	}
	if len(rep.OnlyOld)+len(rep.OnlyNew) != 0 {
		t.Fatalf("self-diff reported missing benchmarks: %+v", rep)
	}
	if !strings.Contains(rep.Format(0.25), "0 regressions") {
		t.Fatalf("Format: %q", rep.Format(0.25))
	}
}

func TestDiffFlagsSlowdownAboveThreshold(t *testing.T) {
	old, _ := Parse(strings.NewReader(fixture))
	newer, _ := Parse(strings.NewReader(fixture))
	for i := range newer.Results {
		if newer.Results[i].Name == "BenchmarkEnumerateSerial" {
			newer.Results[i].NsPerOp *= 2 // 100% slower
		}
		if newer.Results[i].Name == "BenchmarkEnumerateCached" {
			newer.Results[i].NsPerOp *= 1.10 // within a 25% threshold
		}
	}
	rep, err := DiffFloor(old, newer, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0].Key, "EnumerateSerial") {
		t.Fatalf("regressions: %+v", rep.Regressions)
	}
	if got := rep.Regressions[0].Ratio; got < 1.99 || got > 2.01 {
		t.Fatalf("ratio = %g, want ~2", got)
	}
	if !strings.Contains(rep.Format(0.25), "REGRESSION") {
		t.Fatalf("Format: %q", rep.Format(0.25))
	}
}

func TestDiffAddedAndRemovedBenchmarksAreNotes(t *testing.T) {
	old, _ := Parse(strings.NewReader(fixture))
	newer, _ := Parse(strings.NewReader(fixture))
	newer.Results = newer.Results[:len(newer.Results)-1] // one disappears
	extra := old.Results[0]
	extra.Name = "BenchmarkBrandNew"
	newer.Results = append(newer.Results, extra) // one appears
	rep, err := DiffFloor(old, newer, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("membership changes counted as regressions: %+v", rep.Regressions)
	}
	if len(rep.OnlyOld) != 1 || len(rep.OnlyNew) != 1 {
		t.Fatalf("membership notes wrong: old=%v new=%v", rep.OnlyOld, rep.OnlyNew)
	}
}

func TestDiffRejectsBadInputs(t *testing.T) {
	a, _ := Parse(strings.NewReader(fixture))
	b, _ := Parse(strings.NewReader(fixture))
	b.Schema = 2
	if _, err := DiffFloor(a, b, 0.25, 0); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	b.Schema = a.Schema
	if _, err := DiffFloor(a, b, 0, 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func keys(m map[string]Result) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDiffFloorSkipsNoiseBaselines(t *testing.T) {
	oldSnap := &Snapshot{Schema: SchemaVersion, Rev: "a", Date: "d", Results: []Result{
		{Pkg: "p", Name: "BenchmarkTiny", Procs: 8, Iterations: 1000000000, NsPerOp: 1.1},
		{Pkg: "p", Name: "BenchmarkBig", Procs: 8, Iterations: 100, NsPerOp: 50000},
	}}
	newSnap := &Snapshot{Schema: SchemaVersion, Rev: "b", Date: "d", Results: []Result{
		{Pkg: "p", Name: "BenchmarkTiny", Procs: 8, Iterations: 1, NsPerOp: 512}, // 1x harness overhead, ~465x
		{Pkg: "p", Name: "BenchmarkBig", Procs: 8, Iterations: 1, NsPerOp: 52000},
	}}
	rep, err := DiffFloor(oldSnap, newSnap, 0.25, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("noise baseline flagged as regression: %+v", rep.Regressions)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != "p.BenchmarkTiny" {
		t.Fatalf("Skipped = %v, want [p.BenchmarkTiny]", rep.Skipped)
	}
	if len(rep.Deltas) != 1 || rep.Deltas[0].Key != "p.BenchmarkBig" {
		t.Fatalf("Deltas = %+v", rep.Deltas)
	}
	if !strings.Contains(rep.Format(0.25), "below the noise floor") {
		t.Fatalf("Format missing skip note:\n%s", rep.Format(0.25))
	}
	// Floor 0 must flag the same pair: the floor, not the threshold, is
	// what spares it above.
	rep0, err := DiffFloor(oldSnap, newSnap, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep0.Regressions) != 1 {
		t.Fatalf("floor 0 regressions = %+v, want the tiny bench flagged", rep0.Regressions)
	}
}

// TestProcsSuffixIsNotPartOfTheKey requires a benchmark captured at
// GOMAXPROCS 2 (go test prints BenchmarkX-2) and one captured at 1 (go
// test prints BenchmarkX) to be one series: the diff compares them and
// notes the CPU counts differ.
func TestProcsSuffixIsNotPartOfTheKey(t *testing.T) {
	two, err := Parse(strings.NewReader("pkg: p\nBenchmarkX-2\t10\t200 ns/op\nBenchmarkY/w=4-2\t10\t300 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Parse(strings.NewReader("pkg: p\nBenchmarkX\t10\t100 ns/op\nBenchmarkY/w=4\t10\t300 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"p.BenchmarkX", "p.BenchmarkY/w=4"} {
		if two.Results[i].Key() != want || one.Results[i].Key() != want {
			t.Fatalf("keys %q and %q, want %q", two.Results[i].Key(), one.Results[i].Key(), want)
		}
		if two.Results[i].Procs != 2 || one.Results[i].Procs != 1 {
			t.Fatalf("procs %d and %d, want 2 and 1", two.Results[i].Procs, one.Results[i].Procs)
		}
	}
	rep, err := DiffFloor(one, two, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deltas) != 2 || len(rep.Regressions) != 1 || rep.Regressions[0].Key != "p.BenchmarkX" {
		t.Fatalf("deltas %+v, regressions %+v", rep.Deltas, rep.Regressions)
	}
	if out := rep.Format(0.25); !strings.Contains(out, "GOMAXPROCS differs: old snapshot ran at [1], new at [2]") {
		t.Fatalf("Format does not note the CPU counts:\n%s", out)
	}
	if out := (&DiffReport{OldProcs: []int{2}, NewProcs: []int{2}}).Format(0.25); strings.Contains(out, "GOMAXPROCS") {
		t.Fatalf("equal CPU counts noted:\n%s", out)
	}
}

// TestDecodeSplitsLegacySuffix reads a snapshot written before results
// had a procs field: the suffix still in the name is split off.
func TestDecodeSplitsLegacySuffix(t *testing.T) {
	snap, err := Decode(strings.NewReader(`{"schema":1,"rev":"r","date":"d","results":[
		{"pkg":"p","name":"BenchmarkX-16","iterations":1,"ns_per_op":5},
		{"pkg":"p","name":"BenchmarkY/cores=8","iterations":1,"ns_per_op":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if r := snap.Results[0]; r.Key() != "p.BenchmarkX" || r.Procs != 16 {
		t.Fatalf("suffixed legacy result decoded as %+v", r)
	}
	if r := snap.Results[1]; r.Key() != "p.BenchmarkY/cores=8" || r.Procs != 1 {
		t.Fatalf("unsuffixed legacy result decoded as %+v", r)
	}
}

// TestDiffDisjointSnapshotsError requires a diff of two non-empty
// snapshots with no benchmark in common to fail rather than report
// "0 benchmarks compared, 0 regressions".
func TestDiffDisjointSnapshotsError(t *testing.T) {
	a := &Snapshot{Schema: SchemaVersion, Results: []Result{{Pkg: "p", Name: "BenchmarkA", Procs: 1, Iterations: 1, NsPerOp: 5}}}
	b := &Snapshot{Schema: SchemaVersion, Results: []Result{{Pkg: "p", Name: "BenchmarkB", Procs: 1, Iterations: 1, NsPerOp: 5}}}
	if _, err := DiffFloor(a, b, 0.25, 0); err == nil || !strings.Contains(err.Error(), "share no benchmark") {
		t.Fatalf("disjoint diff: err = %v", err)
	}
	// A benchmark skipped below the noise floor is still shared.
	b.Results = append(b.Results, a.Results[0])
	if _, err := DiffFloor(a, b, 0.25, 100); err != nil {
		t.Fatalf("diff sharing one skipped benchmark: %v", err)
	}
	// An empty side has nothing to share and is not an error.
	if _, err := DiffFloor(a, &Snapshot{Schema: SchemaVersion}, 0.25, 0); err != nil {
		t.Fatalf("diff against an empty snapshot: %v", err)
	}
}

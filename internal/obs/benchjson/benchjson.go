// Package benchjson turns `go test -bench` text output into structured,
// committable perf-trajectory snapshots (the BENCH_<n>.json files at the
// repo root) and diffs two snapshots against a regression threshold, so
// the speed half of "fast and low cost" is tracked per PR instead of as
// prose.
//
// The library is deliberately clock-free: the capture date and git
// revision are passed in by the caller (scripts/bench.sh), never read
// here, so parsing the same raw output twice yields byte-identical
// snapshots — the property the bench.sh self-diff check rests on.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the snapshot layout; bump on incompatible
// change so DiffFloor can refuse to compare apples to oranges.
const SchemaVersion = 1

// Result is one benchmark line. Name is the benchmark's name without the
// -N suffix go test appends when GOMAXPROCS is not 1; Procs holds that N
// (1 for an unsuffixed name). NsPerOp is always present; BytesPerOp and
// AllocsPerOp only when the run used -benchmem (pointers distinguish
// "absent" from a true zero). Metrics holds every custom unit reported
// via b.ReportMetric (TAT-cycles, design-points, ...).
type Result struct {
	Pkg         string             `json:"pkg,omitempty"`
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Key identifies a benchmark across snapshots: package plus full sub-test
// name, without the GOMAXPROCS suffix, so snapshots captured on hosts
// with different CPU counts still compare (DiffReport notes the
// difference).
func (r Result) Key() string {
	if r.Pkg == "" {
		return r.Name
	}
	return r.Pkg + "." + r.Name
}

// Snapshot is one committed point of the perf trajectory.
type Snapshot struct {
	Schema  int      `json:"schema"`
	Rev     string   `json:"rev"`
	Date    string   `json:"date"`
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	Results []Result `json:"results"`
}

// Parse reads `go test -bench` output: Benchmark lines become Results,
// goos/goarch/pkg header lines annotate them, everything else (PASS, ok,
// b.Logf output) is ignored. Lines that look like benchmark results but
// do not parse are errors — a silently dropped benchmark would read as
// "no regression".
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Schema: SchemaVersion}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %w", err)
			}
			if ok {
				res.Pkg = pkg
				res.Name, res.Procs = splitProcs(res.Name)
				snap.Results = append(snap.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	return snap, nil
}

// splitProcs splits go test's -N GOMAXPROCS suffix off a benchmark name.
// go test prints no suffix at GOMAXPROCS 1, so an unsuffixed name ran
// at 1. A sub-benchmark whose own name ends in -<digits> is read as
// suffixed too; the tracked suite has none.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if n, err := strconv.Atoi(name[i+1:]); i >= 0 && err == nil && n > 0 {
		return name[:i], n
	}
	return name, 1
}

// parseLine splits one result line. The shape is
//
//	BenchmarkName-8   100   123456 ns/op   12 B/op   3 allocs/op   42.5 extra-metric
//
// i.e. a name, an iteration count, then (value, unit) pairs. ok=false for
// "Benchmark..." prose that is not a result line (e.g. a -v test name).
func parseLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil // "BenchmarkFoo ..." prose, not a result
	}
	res := Result{Name: fields[0], Iterations: iters}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Result{}, false, fmt.Errorf("odd value/unit pairing in %q", line)
	}
	seenNs := false
	for i := 0; i < len(rest); i += 2 {
		val, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad value %q in %q", rest[i], line)
		}
		switch unit := rest[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
			seenNs = true
		case "B/op":
			v := val
			res.BytesPerOp = &v
		case "allocs/op":
			v := val
			res.AllocsPerOp = &v
		case "MB/s":
			fallthrough
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = val
		}
	}
	if !seenNs {
		return Result{}, false, fmt.Errorf("no ns/op in %q", line)
	}
	return res, true, nil
}

// Validate checks a snapshot is schema-complete: current schema version,
// identifying rev and date, at least one result, and every result named
// with a positive iteration count and timing.
func (s *Snapshot) Validate() error {
	if s.Schema != SchemaVersion {
		return fmt.Errorf("benchjson: schema %d, want %d", s.Schema, SchemaVersion)
	}
	if s.Rev == "" || s.Date == "" {
		return fmt.Errorf("benchjson: snapshot missing rev/date")
	}
	if len(s.Results) == 0 {
		return fmt.Errorf("benchjson: snapshot has no results")
	}
	seen := map[string]bool{}
	for _, r := range s.Results {
		if r.Name == "" || r.Iterations <= 0 || r.NsPerOp < 0 {
			return fmt.Errorf("benchjson: malformed result %+v", r)
		}
		if seen[r.Key()] {
			return fmt.Errorf("benchjson: duplicate benchmark %s", r.Key())
		}
		seen[r.Key()] = true
	}
	return nil
}

// Encode writes the snapshot as stable, indented JSON (results sorted by
// key so two captures of the same data are byte-identical).
func (s *Snapshot) Encode(w io.Writer) error {
	sort.Slice(s.Results, func(i, j int) bool { return s.Results[i].Key() < s.Results[j].Key() })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Decode reads a snapshot written by Encode. Results without a procs
// field predate it and kept the GOMAXPROCS suffix in their name; Decode
// splits it off as Parse does.
func Decode(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("benchjson: decode: %w", err)
	}
	for i := range s.Results {
		if res := &s.Results[i]; res.Procs == 0 {
			res.Name, res.Procs = splitProcs(res.Name)
		}
	}
	return &s, nil
}

// procs lists the distinct GOMAXPROCS values of the snapshot's results,
// ascending.
func (s *Snapshot) procs() []int {
	var out []int
	for _, r := range s.Results {
		if !slices.Contains(out, r.Procs) {
			out = append(out, r.Procs)
		}
	}
	slices.Sort(out)
	return out
}

// Delta is one benchmark's movement between two snapshots. Ratio is
// new/old ns/op: 1.30 means 30% slower.
type Delta struct {
	Key      string  `json:"key"`
	OldNs    float64 `json:"old_ns_per_op"`
	NewNs    float64 `json:"new_ns_per_op"`
	Ratio    float64 `json:"ratio"`
	Regessed bool    `json:"regressed"`
}

// DiffReport is the outcome of comparing two snapshots.
type DiffReport struct {
	Deltas      []Delta  `json:"deltas"`
	Regressions []Delta  `json:"regressions,omitempty"`
	OnlyOld     []string `json:"only_old,omitempty"` // benchmarks that disappeared
	OnlyNew     []string `json:"only_new,omitempty"` // benchmarks that appeared
	Skipped     []string `json:"skipped,omitempty"`  // below the noise floor
	// OldProcs and NewProcs are the GOMAXPROCS values each snapshot's
	// benchmarks ran at.
	OldProcs []int `json:"old_procs,omitempty"`
	NewProcs []int `json:"new_procs,omitempty"`
}

// DiffFloor compares old and new ns/op per benchmark. threshold is the
// allowed fractional slowdown: 0.25 flags anything more than 25% slower.
// Benchmarks present on only one side are reported, not failed — adding a
// benchmark must never fail the gate — but two non-empty snapshots that
// share no benchmark at all are an error: such a diff checks nothing.
//
// A benchmark whose baseline ns/op is below the noise floor floorNs is
// listed in Skipped instead of being compared. A single-iteration run
// (-benchtime=1x) measures true cost plus ~1µs of fixed harness
// overhead, so against a nanosecond-scale baseline the ratio is pure
// noise — the smoke gate diffs with a floor, full captures with 0.
func DiffFloor(old, new *Snapshot, threshold, floorNs float64) (*DiffReport, error) {
	if old.Schema != new.Schema {
		return nil, fmt.Errorf("benchjson: schema mismatch %d vs %d", old.Schema, new.Schema)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("benchjson: threshold must be positive, got %g", threshold)
	}
	oldBy := map[string]Result{}
	for _, r := range old.Results {
		oldBy[r.Key()] = r
	}
	rep := &DiffReport{OldProcs: old.procs(), NewProcs: new.procs()}
	newSeen := map[string]bool{}
	for _, nr := range new.Results {
		newSeen[nr.Key()] = true
		or, ok := oldBy[nr.Key()]
		if !ok {
			rep.OnlyNew = append(rep.OnlyNew, nr.Key())
			continue
		}
		if or.NsPerOp < floorNs {
			rep.Skipped = append(rep.Skipped, nr.Key())
			continue
		}
		d := Delta{Key: nr.Key(), OldNs: or.NsPerOp, NewNs: nr.NsPerOp}
		if or.NsPerOp > 0 {
			d.Ratio = nr.NsPerOp / or.NsPerOp
		} else if nr.NsPerOp > 0 {
			d.Ratio = 1 + threshold*2 // 0 -> nonzero is a regression by definition
		} else {
			d.Ratio = 1
		}
		d.Regessed = d.Ratio > 1+threshold
		rep.Deltas = append(rep.Deltas, d)
		if d.Regessed {
			rep.Regressions = append(rep.Regressions, d)
		}
	}
	if len(old.Results) > 0 && len(new.Results) > 0 && len(rep.Deltas)+len(rep.Skipped) == 0 {
		return nil, fmt.Errorf("benchjson: the snapshots share no benchmark (%d old, %d new); nothing to compare",
			len(old.Results), len(new.Results))
	}
	for key := range oldBy {
		if !newSeen[key] {
			rep.OnlyOld = append(rep.OnlyOld, key)
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].Key < rep.Deltas[j].Key })
	sort.Slice(rep.Regressions, func(i, j int) bool { return rep.Regressions[i].Ratio > rep.Regressions[j].Ratio })
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	sort.Strings(rep.Skipped)
	return rep, nil
}

// Format renders the report for humans: regressions first (worst leading),
// then appearance/disappearance notes, then a one-line summary.
func (r *DiffReport) Format(threshold float64) string {
	var b strings.Builder
	for _, d := range r.Regressions {
		fmt.Fprintf(&b, "REGRESSION %s: %.0f ns/op -> %.0f ns/op (%.2fx > %.2fx allowed)\n",
			d.Key, d.OldNs, d.NewNs, d.Ratio, 1+threshold)
	}
	for _, k := range r.OnlyOld {
		fmt.Fprintf(&b, "note: %s only in old snapshot\n", k)
	}
	for _, k := range r.OnlyNew {
		fmt.Fprintf(&b, "note: %s only in new snapshot\n", k)
	}
	for _, k := range r.Skipped {
		fmt.Fprintf(&b, "note: %s below the noise floor, not compared\n", k)
	}
	if !slices.Equal(r.OldProcs, r.NewProcs) {
		fmt.Fprintf(&b, "note: GOMAXPROCS differs: old snapshot ran at %v, new at %v; parallel benchmarks are not like for like\n",
			r.OldProcs, r.NewProcs)
	}
	fmt.Fprintf(&b, "%d benchmarks compared, %d regressions (threshold %.0f%%)\n",
		len(r.Deltas), len(r.Regressions), threshold*100)
	return b.String()
}

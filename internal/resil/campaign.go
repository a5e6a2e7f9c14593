package resil

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/soc"
)

// Outcome is one campaign run: the fault set, the degraded evaluation it
// produced, and any flow error (a flow error under a well-formed fault set
// is a robustness bug — campaigns assert it stays nil).
type Outcome struct {
	Index  int
	Faults []Fault
	Eval   *core.DegradedEvaluation
	Err    error
}

// Campaign evaluates a sequence of fault sets against one prepared flow.
type Campaign struct {
	Flow *core.Flow
	Runs [][]Fault
	// Seed attributes the fault sets (the RandomSets seed, typically); it
	// rides along in every RunRecord so a merged or resumed report keeps
	// saying where its sets came from.
	Seed int64
}

// Execute runs every fault set in order and returns the outcomes: Visit
// over every index of Runs on one worker. A cancelled campaign returns
// the outcomes so far with ctx.Err().
func (c *Campaign) Execute(ctx context.Context) ([]Outcome, error) {
	indices := make([]int, len(c.Runs))
	for i := range indices {
		indices[i] = i
	}
	out := make([]Outcome, 0, len(c.Runs))
	err := c.Visit(ctx, 1, indices, func(o Outcome) { out = append(out, o) })
	return out, err
}

// Visit runs the fault sets at the given indices of Runs and hands each
// outcome to fn: clone the chip, inject, fork the flow, evaluate
// degraded. Runs fan out over workers goroutines (<= 0 selects
// runtime.GOMAXPROCS(0)), so fn may be called concurrently and in any
// order. Outcome.Index is the index into Runs, so a resumed or sharded
// campaign reports the attribution of a full one. An index outside Runs
// is refused before any set runs. Per-run flow errors do not stop the
// campaign; they land in the run's Outcome. A panicking run, fn
// included, is recovered into an error, and the error is the one of the
// earliest failing entry of indices at any worker count. Cancellation
// between runs (and inside each evaluation) returns ctx.Err().
func (c *Campaign) Visit(ctx context.Context, workers int, indices []int, fn func(Outcome)) error {
	for _, i := range indices {
		if i < 0 || i >= len(c.Runs) {
			return fmt.Errorf("resil: fault set %d outside the campaign's %d sets", i, len(c.Runs))
		}
	}
	root := obs.Start(nil, "resil/campaign")
	defer root.End()
	prog := progress.Start("resil/campaign", int64(len(indices)),
		"resil.faults_injected", "resil.run_errors")
	defer prog.End()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return fanout.Each(ctx, len(indices), workers, func(k int) (err error) {
		i := indices[k]
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("resil: fault set %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		o := Outcome{Index: i, Faults: c.Runs[i]}
		sp := obs.Start(root, "resil/run")
		if ch, err := Inject(c.Flow.Chip, o.Faults...); err != nil {
			o.Err = err
		} else {
			o.Eval, o.Err = c.Flow.Fork(ch).EvaluateDegradedCtx(ctx)
		}
		sp.End()
		if o.Err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			obs.C("resil.run_errors").Inc()
		}
		obs.C("resil.runs").Inc()
		prog.Step(1)
		fn(o)
		return nil
	})
}

// RunRecord is the compact, serializable completion record of one fault
// set: which set ran (seed/index attribution) and the degraded bottom
// line; a record exists only for a set that ran. Two runs of the same set
// — in any process, in any order — produce identical records, which is
// what makes sharded and resumed campaign reports mergeable
// bit-identically.
type RunRecord struct {
	Index          int      `json:"index"`
	Seed           int64    `json:"seed,omitempty"`
	Faults         string   `json:"faults"`
	Err            string   `json:"err,omitempty"`
	TAT            int      `json:"tat,omitempty"`
	Coverage       float64  `json:"coverage,omitempty"`
	VectorsCovered int      `json:"vectors_covered,omitempty"`
	VectorsTotal   int      `json:"vectors_total,omitempty"`
	Untestable     []string `json:"untestable,omitempty"`
}

// Record compresses an outcome into its run record.
func (c *Campaign) Record(o Outcome) RunRecord {
	r := RunRecord{
		Index:  o.Index,
		Seed:   c.Seed,
		Faults: FaultSetString(o.Faults),
	}
	if o.Err != nil {
		r.Err = o.Err.Error()
	}
	if o.Eval != nil {
		r.TAT = o.Eval.TAT
		if rep := o.Eval.Report; rep != nil {
			r.Coverage = rep.Coverage
			r.VectorsCovered = rep.VectorsCovered
			r.VectorsTotal = rep.VectorsTotal
			r.Untestable = rep.Untestable()
		}
	}
	return r
}

// Report is the structured outcome of a campaign: one record per fault
// set that ran, in index order, plus how many sets the campaign holds in
// total. A cancelled or sharded campaign yields a partial report: the
// indices below Total with no record are exactly the sets still to run —
// the resume contract.
type Report struct {
	Chip    string      `json:"chip"`
	Seed    int64       `json:"seed,omitempty"`
	Total   int         `json:"total"`
	Records []RunRecord `json:"records"`
}

// Report builds the campaign report from the outcomes Execute returned.
// Every outcome — including errored runs — counts as completed: the error
// is its deterministic result, not missing work.
func (c *Campaign) Report(outs []Outcome) *Report {
	r := &Report{Chip: c.Flow.Chip.Name, Seed: c.Seed, Total: len(c.Runs)}
	for _, o := range outs {
		r.Records = append(r.Records, c.Record(o))
	}
	sort.Slice(r.Records, func(i, j int) bool { return r.Records[i].Index < r.Records[j].Index })
	return r
}

// MergeReports combines partial campaign reports (shards, resumed runs)
// into one. Records are united by index — two runs of one set produce
// identical records, which collapse — and sorted, so any partition of a
// campaign merges to the report the single-process run produces.
func MergeReports(parts ...*Report) *Report {
	out := &Report{}
	byIndex := map[int]RunRecord{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out.Chip == "" {
			out.Chip = p.Chip
		}
		if out.Seed == 0 {
			out.Seed = p.Seed
		}
		if p.Total > out.Total {
			out.Total = p.Total
		}
		for _, rec := range p.Records {
			byIndex[rec.Index] = rec
		}
	}
	for _, rec := range byIndex {
		out.Records = append(out.Records, rec)
	}
	sort.Slice(out.Records, func(i, j int) bool { return out.Records[i].Index < out.Records[j].Index })
	return out
}

// Format renders the report deterministically for command-line output:
// aggregate line first, then one line per set that ran, in index order.
func (r *Report) Format() string {
	var b strings.Builder
	completed, errors := len(r.Records), 0
	minCov, sumCov := 1.0, 0.0
	for _, rec := range r.Records {
		if rec.Err != "" {
			errors++
		}
		sumCov += rec.Coverage
		if rec.Coverage < minCov {
			minCov = rec.Coverage
		}
	}
	mean := 0.0
	if completed > 0 {
		mean = sumCov / float64(completed)
	} else {
		minCov = 0
	}
	fmt.Fprintf(&b, "campaign report (%s, seed %d): %d/%d sets complete, %d errors, coverage mean %.1f%% min %.1f%%\n",
		r.Chip, r.Seed, completed, r.Total, errors, 100*mean, 100*minCov)
	for _, rec := range r.Records {
		if rec.Err != "" {
			fmt.Fprintf(&b, "  set %4d [%s]: ERROR %s\n", rec.Index, rec.Faults, rec.Err)
			continue
		}
		fmt.Fprintf(&b, "  set %4d [%s]: TApp %d, coverage %.1f%% (%d/%d)", rec.Index, rec.Faults,
			rec.TAT, 100*rec.Coverage, rec.VectorsCovered, rec.VectorsTotal)
		if len(rec.Untestable) > 0 {
			fmt.Fprintf(&b, ", untestable: %s", strings.Join(rec.Untestable, ","))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SingleEdgeCuts enumerates one CutEdge fault set per interconnect net, in
// net declaration order — the exhaustive broken-wire campaign.
func SingleEdgeCuts(ch *soc.Chip) [][]Fault {
	out := make([][]Fault, 0, len(ch.Nets))
	for _, n := range ch.Nets {
		out = append(out, []Fault{Cut(n)})
	}
	return out
}

// Catalog lists every basic single fault of the chip: each net cut, and
// each testable core made opaque, slowed and scan-broken.
func Catalog(ch *soc.Chip) []Fault {
	var out []Fault
	for _, n := range ch.Nets {
		out = append(out, Cut(n))
	}
	for _, c := range ch.TestableCores() {
		out = append(out, Opaque{Core: c.Name})
		out = append(out, SlowTransparency{Core: c.Name, Factor: 2})
		out = append(out, DisableHSCAN{Core: c.Name})
	}
	return out
}

// RandomSets draws n fault sets of the given size from the chip's fault
// catalog, without replacement inside a set, deterministically from seed.
func RandomSets(ch *soc.Chip, n, size int, seed int64) [][]Fault {
	cat := Catalog(ch)
	if size > len(cat) {
		size = len(cat)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Fault, 0, n)
	for i := 0; i < n; i++ {
		idx := rng.Perm(len(cat))[:size]
		set := make([]Fault, size)
		for j, k := range idx {
			set[j] = cat[k]
		}
		out = append(out, set)
	}
	return out
}

package main

import (
	_ "embed"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/flowcmd"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/testbus"
	"repro/internal/wrap"
)

// studySeed1 is the output of `compare -study` (socgen seed 1, the
// default core counts and TAM widths): the reference rows.
//
//go:embed testdata/study-seed1.txt
var studySeed1 string

// study is `compare -study` through the public API: for every topology
// and core count, prepare (vector override), the SOCET evaluation, the
// test-bus baseline and the wrapper/TAM baseline at each TAM width.
type study struct {
	seed    uint64
	cores   []int
	widths  []int
	workers int
	// first holds the rows of the run's first iteration; later
	// iterations must reproduce them.
	first *[]string
}

func (s study) setup() (iteration, error) {
	r := &studyRun{w: s}
	for _, topo := range socgen.Topologies() {
		for _, n := range s.cores {
			ch, err := socgen.Generate(socgen.Params{Seed: s.seed, Cores: n, Topology: topo})
			if err != nil {
				return nil, fmt.Errorf("generate %s/%d: %w", topo, n, err)
			}
			r.chips = append(r.chips, ch)
			r.labels = append(r.labels, fmt.Sprintf("%-6s %6d", topo, n))
		}
	}
	return r, nil
}

func (study) layers() []string {
	return []string{"synth.s", "hscan.s", "trans.s", "core.flow_evaluate_s", "testbus.s", "wrap.s"}
}

func (s study) workerCounts() map[string]int { return map[string]int{"flow": 1, "wrap": s.workers} }

type studyRun struct {
	w      study
	chips  []*soc.Chip
	labels []string
	rows   []string
}

func (r *studyRun) ops() int { return len(r.chips) }
func (r *studyRun) close()   {}

func (r *studyRun) run(t *tracer) error {
	for i, ch := range r.chips {
		row, err := r.cell(t, ch)
		if err != nil {
			return fmt.Errorf("%s: %w", strings.Join(strings.Fields(r.labels[i]), "/"), err)
		}
		r.rows = append(r.rows, r.labels[i]+row)
	}
	return nil
}

// cell runs one chip and formats its row exactly as compare -study does.
func (r *studyRun) cell(t *tracer, ch *soc.Chip) (string, error) {
	var f *core.Flow
	if err := t.call(func() (err error) {
		f, err = core.Prepare(ch, flowcmd.GenVectorOverride(ch))
		return err
	}); err != nil {
		return "", err
	}
	var e *core.Evaluation
	if err := t.call(func() (err error) {
		e, err = f.Evaluate()
		return err
	}, "core.flow_evaluate_s"); err != nil {
		return "", err
	}
	var tb *testbus.Result
	t.call(func() error { tb = testbus.Evaluate(ch); return nil }, "testbus.s")
	var b strings.Builder
	fmt.Fprintf(&b, " | %9d %8d | %9d %8d", e.TAT, e.ChipDFTCells(), tb.TotalTAT, tb.MuxCells())
	bestName, bestTAT := "socet", e.TAT
	if tb.TotalTAT < bestTAT {
		bestName, bestTAT = "bus", tb.TotalTAT
	}
	for _, w := range r.w.widths {
		metrics := []string{"wrap.s"}
		if w == 16 {
			metrics = append(metrics, "wrap.w16_s")
		}
		var wr *wrap.Result
		t.call(func() error { wr = f.EvaluateWrapper(w, &wrap.Options{Workers: r.w.workers}); return nil }, metrics...)
		t.add("wrap.calls", 1)
		fmt.Fprintf(&b, " | %8d %8d", wr.ChipTAT, wr.DFTCells())
		if wr.ChipTAT < bestTAT {
			bestName, bestTAT = fmt.Sprintf("wrapW=%d", w), wr.ChipTAT
		}
	}
	fmt.Fprintf(&b, " | %s", bestName)
	return b.String(), nil
}

// check compares every row with the compare -study reference on the
// default configuration. On any other seed it checks what holds without
// one: the best column names the smallest TAT, a wider TAM is never
// slower, and the run's iterations agree row for row.
func (r *studyRun) check(*tracer) []string {
	var fails []string
	ref := referenceRows(r.w)
	for i, row := range r.rows {
		var err error
		switch {
		case ref != nil:
			if row != ref[i] {
				err = fmt.Errorf("got %q, compare -study prints %q", row, ref[i])
			}
		default:
			err = checkStudyRow(row, r.w.widths)
		}
		if err == nil && *r.w.first != nil && row != (*r.w.first)[i] {
			err = fmt.Errorf("got %q, the run's first iteration %q", row, (*r.w.first)[i])
		}
		if err != nil {
			fails = append(fails, "study: "+err.Error())
		}
	}
	if *r.w.first == nil {
		*r.w.first = r.rows
	}
	return fails
}

// referenceRows returns the compare -study rows for the default
// configuration, or nil for any other.
func referenceRows(s study) []string {
	if s.seed != 1 || fmt.Sprint(s.cores) != "[8 32 128 256]" || fmt.Sprint(s.widths) != "[1 4 16]" {
		return nil
	}
	lines := strings.Split(strings.TrimSpace(studySeed1), "\n")
	return lines[2:] // title and column header
}

// checkStudyRow parses "topo cores | socet cells | bus cells | wrapW
// cells ... | best" and checks its reference-free invariants.
func checkStudyRow(row string, widths []int) error {
	cols := strings.Split(row, "|")
	if len(cols) != 4+len(widths) {
		return fmt.Errorf("malformed row %q", row)
	}
	names := []string{"socet", "bus"}
	for _, w := range widths {
		names = append(names, fmt.Sprintf("wrapW=%d", w))
	}
	var tats []int
	for _, col := range cols[1 : len(cols)-1] {
		var tat, cells int
		if _, err := fmt.Sscan(col, &tat, &cells); err != nil || tat <= 0 || cells <= 0 {
			return fmt.Errorf("bad column %q in %q", col, row)
		}
		tats = append(tats, tat)
	}
	wrapTATs := tats[2:]
	for i := 1; i < len(wrapTATs); i++ {
		if wrapTATs[i] > wrapTATs[i-1] {
			return fmt.Errorf("a wider TAM is slower in %q", row)
		}
	}
	best := 0
	for i, v := range tats {
		if v < tats[best] {
			best = i
		}
	}
	got := strings.TrimSpace(cols[len(cols)-1])
	if got != names[best] {
		return fmt.Errorf("best column %q does not name the smallest TAT in %q", got, row)
	}
	return nil
}

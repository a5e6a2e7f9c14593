// Package proptest is the property-based differential harness over
// socgen-generated SoCs: for each seeded chip it runs the full SOCET flow,
// replays every scheduled justification and propagation path on the
// cycle-accurate chip simulator asserting the analytic latencies and TAT
// against simulated cycle counts, and checks metamorphic invariants of the
// version ladders, the scheduler and the design-space explorer. A failing
// seed shrinks to a minimal core count so the reproducer is small.
package proptest

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/trans"
)

// Stats summarizes one chip's verification for aggregate reporting.
type Stats struct {
	Chip       string
	Paths      int // scheduled port paths examined
	Replayed   int // paths replayed cycle-accurately on chipsim
	Virtual    int // paths skipped (test muxes, created edges, splits...)
	FullCores  int // cores whose TAT was recomputed purely from simulation
	Points     int // enumerated design points (small chips only)
	WrapChains int // wrapper chains pulse-replayed on chipsim
	WrapCores  int // cores whose wrapper TAT identity was machine-checked
}

// add accumulates another chip's stats (aggregation across seeds).
func (s *Stats) add(o *Stats) {
	s.Paths += o.Paths
	s.Replayed += o.Replayed
	s.Virtual += o.Virtual
	s.FullCores += o.FullCores
	s.Points += o.Points
	s.WrapChains += o.WrapChains
	s.WrapCores += o.WrapCores
}

// maxEnumProduct caps the ladder product for which the exhaustive
// enumeration invariants run; larger chips rely on the always-on checks.
const maxEnumProduct = 64

// Check generates the chip for p and runs the full property battery. A
// non-nil error is a real property violation (or a generator bug), never
// test-environment noise; Generate failures surface as errors too so
// callers can decide to skip.
func Check(p socgen.Params) (*Stats, error) {
	st := &Stats{}
	ch, err := socgen.Generate(p)
	if err != nil {
		return st, err
	}
	st.Chip = ch.Name

	// ATPG is skipped: vector counts are seeded per core, keeping 50-seed
	// sweeps fast while leaving every scheduling property intact.
	vr := &rng{s: p.Seed ^ 0x5eed}
	vecs := map[string]int{}
	for _, c := range ch.Cores {
		vecs[c.Name] = 5 + vr.intn(28)
	}
	f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		return st, fmt.Errorf("prepare: %w", err)
	}

	if err := checkLadders(ch); err != nil {
		return st, err
	}

	e, err := f.Evaluate()
	if err != nil {
		return st, fmt.Errorf("evaluate: %w", err)
	}
	if err := checkSchedule(ch, e); err != nil {
		return st, err
	}
	e2, err := f.Evaluate()
	if err != nil {
		return st, fmt.Errorf("re-evaluate: %w", err)
	}
	if sig, sig2 := scheduleSignature(e), scheduleSignature(e2); sig != sig2 {
		return st, fmt.Errorf("evaluation is nondeterministic: two runs produced different schedules")
	}

	// Differential replay at the minimum-area selection and again at the
	// fastest (last-version) selection, so both ends of every ladder get
	// simulated.
	fast := map[string]int{}
	for _, c := range ch.TestableCores() {
		fast[c.Name] = len(c.Versions) - 1
	}
	for _, run := range []struct {
		name string
		sel  map[string]int
		eval *core.Evaluation
	}{{"min-area", f.CurrentSelection(), e}, {"fastest", fast, nil}} {
		ev := run.eval
		if ev == nil {
			ev, err = f.EvaluateSelection(run.sel)
			if err != nil {
				return st, fmt.Errorf("evaluate %s selection: %w", run.name, err)
			}
		}
		rst, err := ReplayEvaluation(ch, ev)
		st.add(rst)
		if err != nil {
			return st, fmt.Errorf("%s selection: %w", run.name, err)
		}
	}

	if err := checkDeltaEquivalence(f, ch); err != nil {
		return st, err
	}

	if err := checkMetamorphic(f, ch, st); err != nil {
		return st, err
	}
	return st, nil
}

// checkDeltaEquivalence asserts the incremental delta evaluator is
// bit-identical to the full evaluation path: from a base at the current
// selection, flip each core to its next version (wrapping) one at a
// time and require every reported number and the canonical schedule
// signature to match. This is the correctness gate of the delta
// invalidation model — an over-eager reuse or a stale invalidation
// surfaces here as a signature or field mismatch.
func checkDeltaEquivalence(f *core.Flow, ch *soc.Chip) error {
	d := core.NewDeltaEvaluator(f)
	base := f.CurrentSelection()
	if _, err := d.EvaluateSelectionCtx(context.Background(), base); err != nil {
		return fmt.Errorf("delta base: %w", err)
	}
	flips := 0
	for _, c := range ch.TestableCores() {
		if len(c.Versions) < 2 {
			continue
		}
		sel := map[string]int{}
		for k, v := range base {
			sel[k] = v
		}
		sel[c.Name] = (base[c.Name] + 1) % len(c.Versions)
		de, err := d.EvaluateSelectionCtx(context.Background(), sel)
		if err != nil {
			return fmt.Errorf("delta evaluate (flip %s): %w", c.Name, err)
		}
		fe, err := f.EvaluateSelection(sel)
		if err != nil {
			return fmt.Errorf("full evaluate (flip %s): %w", c.Name, err)
		}
		if err := EqualEvaluations(de, fe); err != nil {
			return fmt.Errorf("delta != full after flipping %s: %w", c.Name, err)
		}
		flips++
	}
	// Guard against a vacuous pass: the equivalence above only means
	// something if the incremental path actually ran. Every flip is one
	// core from the base, so each must be a delta or a refused delta (a
	// fallback). The base itself is the one full evaluation; a second
	// means the registry lost the base and the flip compared a full
	// evaluation with a full one.
	if st := d.Stats(); st.Deltas+st.Fallbacks != flips || st.Fulls != 1 || (flips > 0 && st.Deltas == 0) {
		return fmt.Errorf("delta evaluator did not serve all %d flips incrementally (%+v)", flips, st)
	}
	return nil
}

// EqualEvaluations compares two evaluations of the same selection for
// bit-identity: their resolved selections, every reported number, the
// interconnect test plans of their graphs net by net, tested or
// untestable, and the canonical schedule signature. A non-nil error names
// the first difference.
func EqualEvaluations(a, b *core.Evaluation) error {
	if !maps.Equal(a.Selection, b.Selection) {
		return fmt.Errorf("Selection differs: %v vs %v", a.Selection, b.Selection)
	}
	type num struct {
		name string
		a, b int
	}
	nums := []num{
		{"TAT", a.TAT, b.TAT},
		{"TransCells", a.TransCells, b.TransCells},
		{"MuxCells", a.MuxCells, b.MuxCells},
		{"CtrlCells", a.CtrlCells, b.CtrlCells},
		{"BISTCycles", a.BISTCycles, b.BISTCycles},
		{"TransGrids", a.TransArea.Grids(), b.TransArea.Grids()},
		{"MuxGrids", a.MuxArea.Grids(), b.MuxArea.Grids()},
		{"CtrlGrids", a.CtrlArea.Grids(), b.CtrlArea.Grids()},
		{"CtrlStates", a.Controller.States, b.Controller.States},
	}
	for _, n := range nums {
		if n.a != n.b {
			return fmt.Errorf("%s differs: %d vs %d", n.name, n.a, n.b)
		}
	}
	ia, err := sched.ScheduleInterconnect(a.Graph.Chip, a.Graph)
	if err != nil {
		return err
	}
	ib, err := sched.ScheduleInterconnect(b.Graph.Chip, b.Graph)
	if err != nil {
		return err
	}
	if err := equalInterconnect(ia, ib); err != nil {
		return err
	}
	if sa, sb := scheduleSignature(a), scheduleSignature(b); sa != sb {
		return fmt.Errorf("schedule signatures differ:\n--- a ---\n%s--- b ---\n%s", sa, sb)
	}
	return nil
}

// equalInterconnect compares two interconnect test plans: the totals,
// then every tested and every untestable net in order.
func equalInterconnect(a, b *sched.InterconnectResult) error {
	if a.TotalTAT != b.TotalTAT {
		return fmt.Errorf("InterconnectTAT differs: %d vs %d", a.TotalTAT, b.TotalTAT)
	}
	if len(a.Nets) != len(b.Nets) {
		return fmt.Errorf("InterconnectNets differs: %d vs %d", len(a.Nets), len(b.Nets))
	}
	if len(a.Untestable) != len(b.Untestable) {
		return fmt.Errorf("UntestableNets differs: %d vs %d", len(a.Untestable), len(b.Untestable))
	}
	for i, nt := range a.Nets {
		if o := b.Nets[i]; nt != o {
			return fmt.Errorf("interconnect net %d differs: %+v vs %+v", i, nt, o)
		}
	}
	for i, n := range a.Untestable {
		if o := b.Untestable[i]; n != o {
			return fmt.Errorf("untestable net %d differs: %v vs %v", i, n, o)
		}
	}
	return nil
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// checkLadders asserts the pareto front every version ladder must form:
// area never decreases along the ladder while total transparency latency
// strictly decreases — "adding a faster version" is exactly a ladder
// extension, and this ordering is what makes budget sweeps monotone.
func checkLadders(ch *soc.Chip) error {
	for _, c := range ch.TestableCores() {
		if len(c.Versions) == 0 {
			return fmt.Errorf("core %s: empty version ladder", c.Name)
		}
		prevCells := -1
		prevSum := int(^uint(0) >> 1)
		for i, v := range c.Versions {
			cells := v.Area.Cells()
			sum := ladderLatencySum(c, v)
			if cells < prevCells {
				return fmt.Errorf("core %s: version %d area %d cells < version %d area %d (ladder not monotone)",
					c.Name, i+1, cells, i, prevCells)
			}
			if sum >= prevSum {
				return fmt.Errorf("core %s: version %d latency sum %d does not improve on version %d's %d",
					c.Name, i+1, sum, i, prevSum)
			}
			prevCells, prevSum = cells, sum
		}
	}
	return nil
}

func ladderLatencySum(c *soc.Core, v *trans.Version) int {
	s := 0
	for _, in := range c.RTL.Inputs() {
		if l := v.PropLatency(in.Name); l >= 0 {
			s += l
		}
	}
	for _, out := range c.RTL.Outputs() {
		if l := v.JustLatency(out.Name); l >= 0 {
			s += l
		}
	}
	return s
}

// checkSchedule asserts the analytic invariants of a full evaluation: the
// schedule itself revalidates (causality, reservation disjointness, TAT
// formula), covers every testable core exactly once, and sums to the
// reported chip TAT.
func checkSchedule(ch *soc.Chip, e *core.Evaluation) error {
	if err := sched.Validate(e.Sched); err != nil {
		return fmt.Errorf("schedule validation: %w", err)
	}
	seen := map[string]bool{}
	sum := 0
	for _, cs := range e.Sched.Cores {
		if seen[cs.Core] {
			return fmt.Errorf("core %s scheduled twice", cs.Core)
		}
		seen[cs.Core] = true
		sum += cs.TAT
	}
	for _, c := range ch.TestableCores() {
		if !seen[c.Name] {
			return fmt.Errorf("core %s missing from schedule", c.Name)
		}
	}
	if sum != e.TAT {
		return fmt.Errorf("per-core TATs sum to %d but chip TAT is %d", sum, e.TAT)
	}
	return nil
}

// scheduleSignature renders a schedule to a canonical string, node names
// included, so two evaluations can be compared for bit-identical paths.
// Edge IDs are deliberately absent: an incremental graph splice shifts
// IDs after the spliced range without changing any path.
func scheduleSignature(e *core.Evaluation) string {
	var b []byte
	app := func(s string) { b = append(b, s...) }
	for _, cs := range e.Sched.Cores {
		app(fmt.Sprintf("core %s J=%d O=%d tail=%d V=%d TAT=%d\n",
			cs.Core, cs.Period, cs.ObserveLat, cs.Tail, cs.HSCANVectors, cs.TAT))
		for _, group := range [][]sched.PortSchedule{cs.Inputs, cs.Outputs} {
			for _, ps := range group {
				app(fmt.Sprintf("  %s arr=%d mux=%v:", ps.Port, ps.Arrival, ps.AddedMux))
				for _, s := range ps.Path.Steps {
					app(fmt.Sprintf(" %s->%s@%d+%d/k%d",
						e.Graph.Nodes[s.Edge.From].Name(), e.Graph.Nodes[s.Edge.To].Name(),
						s.Start, s.Edge.Latency, int(s.Edge.Kind)))
				}
				app("\n")
			}
		}
	}
	app(fmt.Sprintf("mux=%d ctrl=%d trans=%d\n", e.MuxCells, e.CtrlCells, e.TransCells))
	return string(b)
}

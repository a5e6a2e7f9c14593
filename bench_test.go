// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), plus ablations of the design choices called out
// in DESIGN.md and micro-benchmarks of the algorithmic substrates. Run
//
//	go test -bench=. -benchmem
//
// and add -v to see the regenerated rows next to the paper's numbers.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/ccg"
	"repro/internal/chipsim"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/flowcmd"
	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/hier"
	"repro/internal/hscan"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resil"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/synth"
	"repro/internal/systems"
	"repro/internal/trans"
	"repro/internal/wrap"
)

// fixtures are shared across benchmarks: the prepared flows (full ATPG)
// and enumerated design spaces for both systems.
var (
	fixOnce sync.Once
	fix     struct {
		f1, f2 *core.Flow
		p1, p2 []explore.Point
		err    error
	}
)

func flows(b *testing.B) (*core.Flow, []explore.Point, *core.Flow, []explore.Point) {
	b.Helper()
	fixOnce.Do(func() {
		f1, err := core.Prepare(systems.System1(), nil)
		if err != nil {
			fix.err = err
			return
		}
		p1, err := explore.EnumerateCtx(context.Background(), f1, explore.Options{})
		if err != nil {
			fix.err = err
			return
		}
		f2, err := core.Prepare(systems.System2(), nil)
		if err != nil {
			fix.err = err
			return
		}
		p2, err := explore.EnumerateCtx(context.Background(), f2, explore.Options{})
		if err != nil {
			fix.err = err
			return
		}
		fix.f1, fix.p1, fix.f2, fix.p2 = f1, p1, f2, p2
	})
	if fix.err != nil {
		b.Fatal(fix.err)
	}
	resetSelection(fix.f1)
	resetSelection(fix.f2)
	return fix.f1, fix.p1, fix.f2, fix.p2
}

func resetSelection(f *core.Flow) {
	sel := map[string]int{}
	for _, c := range f.Chip.TestableCores() {
		sel[c.Name] = 0
	}
	f.SelectVersions(sel)
	f.ForcedMuxes = nil
}

// versionLadder runs core-level DFT and transparency on one core.
func versionLadder(b *testing.B, build func() *rtl.Core) []*trans.Version {
	b.Helper()
	c := build()
	scan, err := hscan.Insert(c)
	if err != nil {
		b.Fatal(err)
	}
	g, err := trans.Build(c, scan)
	if err != nil {
		b.Fatal(err)
	}
	vs, err := trans.Versions(g)
	if err != nil {
		b.Fatal(err)
	}
	return vs
}

// --- E1: Figure 6 — CPU transparency version ladder ---------------------

func BenchmarkFig6CPUVersions(b *testing.B) {
	var vs []*trans.Version
	for i := 0; i < b.N; i++ {
		vs = versionLadder(b, systems.CPU)
	}
	v1, last := vs[0], vs[len(vs)-1]
	b.ReportMetric(float64(v1.JustLatency("AddrLo")), "v1-D-to-A7:0-cycles")
	b.ReportMetric(float64(v1.JustLatency("AddrHi")), "v1-D-to-A11:8-cycles")
	b.ReportMetric(float64(last.JustLatency("AddrLo")), "vLast-D-to-A7:0-cycles")
	b.Logf("Figure 6 (paper: V1 6/2 -> V3 1/1 at 3 -> 30 cells):")
	for _, v := range vs {
		a := v.Area
		b.Logf("  %s: D->A(7:0)=%d  D->A(11:8)=%d  overhead=%d cells",
			v.Label, v.JustLatency("AddrLo"), v.JustLatency("AddrHi"), a.Cells())
	}
}

// --- E2: Figure 8 — PREPROCESSOR and DISPLAY ladders ---------------------

func BenchmarkFig8PreprocessorVersions(b *testing.B) {
	var vs []*trans.Version
	for i := 0; i < b.N; i++ {
		vs = versionLadder(b, systems.Preprocessor)
	}
	b.ReportMetric(float64(vs[0].JustLatency("DB")), "v1-NUM-to-DB-cycles")
	b.ReportMetric(float64(vs[len(vs)-1].JustLatency("DB")), "vLast-NUM-to-DB-cycles")
	b.Logf("Figure 8(a) (paper: NUM->DB 5 -> 1 -> 1 at 2 -> 37 cells):")
	for _, v := range vs {
		a := v.Area
		b.Logf("  %s: NUM->DB=%d  NUM->Address=%d  overhead=%d cells",
			v.Label, v.JustLatency("DB"), v.JustLatency("Address"), a.Cells())
	}
}

func BenchmarkFig8DisplayVersions(b *testing.B) {
	var vs []*trans.Version
	for i := 0; i < b.N; i++ {
		vs = versionLadder(b, systems.Display)
	}
	b.ReportMetric(float64(vs[0].PropLatency("D")), "v1-D-to-OUT-cycles")
	b.ReportMetric(float64(vs[0].PropLatency("ALo")), "v1-A-to-OUT-cycles")
	b.Logf("Figure 8(b) (paper: D->OUT 2, A->OUT 3 in V1; both 1 by V3):")
	for _, v := range vs {
		a := v.Area
		b.Logf("  %s: D->OUT=%d  A(7:0)->OUT=%d  overhead=%d cells",
			v.Label, v.PropLatency("D"), v.PropLatency("ALo"), a.Cells())
	}
}

// --- E3: Section 3 worked example — DISPLAY TAT per CPU version ----------

func BenchmarkSec3DisplayTAT(b *testing.B) {
	f, err := core.Prepare(systems.System1(), &core.Options{
		VectorOverride: map[string]int{"CPU": 100, "PREPROCESSOR": 100, "DISPLAY": 105},
	})
	if err != nil {
		b.Fatal(err)
	}
	var ex *report.Section3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err = report.WorkedExample(f)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ex.Rows[0].TAT), "cpuV1-TAT-cycles")
	b.ReportMetric(float64(ex.Rows[len(ex.Rows)-1].TAT), "cpuVLast-TAT-cycles")
	b.ReportMetric(float64(ex.FscanBscanTAT), "fscan-bscan-TAT-cycles")
	b.Logf("Section 3 worked example (paper: 4728 / 2103 / 1578 vs 9115):")
	for _, r := range ex.Rows {
		b.Logf("  %-16s %d x %d + %d = %d cycles", r.Config, r.Vectors, r.Period, r.Tail, r.TAT)
	}
	b.Logf("  FSCAN-BSCAN baseline: %d cycles", ex.FscanBscanTAT)
}

// --- E4: Figure 10 — TAT vs area trade-off curve -------------------------

func BenchmarkFig10Tradeoff(b *testing.B) {
	f1, _, _, _ := flows(b)
	var points []explore.Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = explore.EnumerateCtx(context.Background(), f1, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	minTAT := explore.MinTATPoint(points)
	b.ReportMetric(float64(len(points)), "design-points")
	b.ReportMetric(float64(points[0].TAT), "min-area-TAT-cycles")
	b.ReportMetric(float64(minTAT.TAT), "min-TAT-cycles")
	b.ReportMetric(float64(points[0].TAT)/float64(minTAT.TAT), "TAT-reduction-x")
	b.Logf("Figure 10 (paper: 18 points, ~4.5x TAT reduction):\n%s",
		report.FormatFigure10(report.Figure10(explore.Pareto(points))))
}

// BenchmarkEnumerateSerialVsParallel reports the wall-clock ratio between
// the single-worker and GOMAXPROCS-wide enumeration of the System 1
// version ladder in one run; the parallel pool produces bit-identical
// points (asserted here too).
func BenchmarkEnumerateSerialVsParallel(b *testing.B) {
	f1, _, _, _ := flows(b)
	var serialNS, parallelNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serial, err := explore.EnumerateCtx(context.Background(), f1, explore.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		parallel, err := explore.EnumerateCtx(context.Background(), f1, explore.Options{Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		serialNS += t1.Sub(t0).Nanoseconds()
		parallelNS += t2.Sub(t1).Nanoseconds()
		if len(serial) != len(parallel) {
			b.Fatalf("parallel enumerated %d points, serial %d", len(parallel), len(serial))
		}
		for j := range serial {
			if serial[j].Label() != parallel[j].Label() || serial[j].TAT != parallel[j].TAT ||
				serial[j].ChipCells != parallel[j].ChipCells {
				b.Fatalf("point %d diverged between serial and parallel enumeration", j)
			}
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	if parallelNS > 0 {
		b.ReportMetric(float64(serialNS)/float64(parallelNS), "serial-over-parallel-x")
	}
}

// --- E5: Table 1 — design space exploration rows -------------------------

func BenchmarkTable1DesignSpace(b *testing.B) {
	f1, p1, _, _ := flows(b)
	var rows []report.Table1Row
	for i := 0; i < b.N; i++ {
		rows = report.Table1(f1, p1)
	}
	b.ReportMetric(rows[0].FCov, "fault-coverage-pct")
	b.ReportMetric(rows[0].TestEff, "test-efficiency-pct")
	b.Logf("Table 1 (paper: 156/17387, 325/3818, 307/3806 at FC 98.4, TEff 99.8):")
	for _, r := range rows {
		b.Logf("  %-60s A.Ov=%d TApp=%d FC=%.1f%% TEff=%.1f%%", r.Desc, r.AreaOv, r.TATime, r.FCov, r.TestEff)
	}
}

// --- E6: Table 2 — area overheads, both systems --------------------------

func benchTable2(b *testing.B, f *core.Flow, points []explore.Point, paper string) {
	var t2 *report.Table2
	var err error
	for i := 0; i < b.N; i++ {
		t2, err = report.MakeTable2(f, points)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t2.FscanBscanTotalPct, "fscan-bscan-total-pct")
	b.ReportMetric(t2.SocetMinAreaTotalPct, "socet-min-area-total-pct")
	b.Logf("Table 2 %s (paper: %s):", t2.System, paper)
	b.Logf("  FSCAN %.1f%%  HSCAN %.1f%%  BSCAN %.1f%%  SOCET chip %.1f%%/%.1f%%  totals %.1f%% vs %.1f%%/%.1f%%",
		t2.FscanPct, t2.HscanPct, t2.BscanPct, t2.SocetMinAreaPct, t2.SocetMinTATPct,
		t2.FscanBscanTotalPct, t2.SocetMinAreaTotalPct, t2.SocetMinTATTotalPct)
}

func BenchmarkTable2AreaOverheadsS1(b *testing.B) {
	f1, p1, _, _ := flows(b)
	benchTable2(b, f1, p1, "FSCAN 18.8, HSCAN 10.1, BSCAN 5.2, SOCET 2.0/3.8, totals 24.0 vs 12.1/13.9")
}

func BenchmarkTable2AreaOverheadsS2(b *testing.B) {
	_, _, f2, p2 := flows(b)
	benchTable2(b, f2, p2, "FSCAN 15.6, HSCAN 10.3, BSCAN 9.9, SOCET 1.2/4.7, totals 25.5 vs 11.5/15.0")
}

// --- E7: Table 3 — testability, both systems ------------------------------

func benchTable3(b *testing.B, f *core.Flow, points []explore.Point, paper string) {
	var t3 *report.Table3
	var err error
	for i := 0; i < b.N; i++ {
		t3, err = report.MakeTable3(f, points, &report.Table3Options{Cycles: 192, FaultSample: 1200})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t3.OrigFC, "orig-FC-pct")
	b.ReportMetric(t3.SocetFC, "socet-FC-pct")
	b.ReportMetric(float64(t3.FscanBscanTAT), "fscan-bscan-TAT-cycles")
	b.ReportMetric(float64(t3.SocetMinTAT), "socet-min-TAT-cycles")
	b.Logf("Table 3 %s (paper: %s):", t3.System, paper)
	b.Logf("  orig FC %.1f%%, HSCAN-only FC %.1f%%, FSCAN-BSCAN FC %.1f%% @ %d cyc, SOCET FC %.1f%% @ %d/%d cyc",
		t3.OrigFC, t3.HscanFC, t3.FscanBscanFC, t3.FscanBscanTAT, t3.SocetFC, t3.SocetMinArea, t3.SocetMinTAT)
}

func BenchmarkTable3TestabilityS1(b *testing.B) {
	f1, p1, _, _ := flows(b)
	benchTable3(b, f1, p1, "orig 10.6, HSCAN 14.6, FSCAN-BSCAN 98.4 @ 36152, SOCET 98.4 @ 17387/3806")
}

func BenchmarkTable3TestabilityS2(b *testing.B) {
	_, _, f2, p2 := flows(b)
	benchTable3(b, f2, p2, "orig 11.2, HSCAN 13.8, FSCAN-BSCAN 98.2 @ 46394, SOCET 98.2 @ 16435/3998")
}

// --- Ablations ------------------------------------------------------------

// AblationHSCANOnlyTransparency compares Version 1's HSCAN-edge-first
// search against the all-edges minimum-latency search (the V1/V2 mechanism
// of Section 4): all-edge search must never be slower.
func BenchmarkAblationHSCANOnlyTransparency(b *testing.B) {
	c := systems.CPU()
	scan, err := hscan.Insert(c)
	if err != nil {
		b.Fatal(err)
	}
	g, err := trans.Build(c, scan)
	if err != nil {
		b.Fatal(err)
	}
	var strictSum, looseSum int
	for i := 0; i < b.N; i++ {
		strictSum, looseSum = 0, 0
		for _, out := range g.OutputNodes() {
			if p, ok := g.SolveJust(out, true); ok {
				strictSum += p.Latency
			}
			if p, ok := g.SolveJust(out, false); ok {
				looseSum += p.Latency
			}
		}
	}
	b.ReportMetric(float64(strictSum), "hscan-only-latency-sum")
	b.ReportMetric(float64(looseSum), "all-edges-latency-sum")
	if looseSum > strictSum {
		b.Fatalf("all-edge search slower than HSCAN-only: %d > %d", looseSum, strictSum)
	}
}

// AblationReservations compares the reservation-aware Dijkstra against a
// naive one that ignores edge sharing: naive arrival times underestimate
// the DISPLAY's justification period (Section 5.1's point).
func BenchmarkAblationReservations(b *testing.B) {
	f1, _, _, _ := flows(b)
	g, err := ccg.Build(f1.Chip)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	targets := []string{"DISPLAY.ALo", "DISPLAY.AHi", "DISPLAY.D"}
	var reserved, naive int
	for i := 0; i < b.N; i++ {
		resv := ccg.Reservations{}
		reserved, naive = 0, 0
		for _, name := range targets {
			t, _ := g.NodeIndex(name)
			p := g.ShortestPath(g.PINodes(), t, resv)
			if p == nil {
				b.Fatalf("no path to %s", name)
			}
			g.ReservePath(p, resv)
			if p.Arrival > reserved {
				reserved = p.Arrival
			}
			pn := g.ShortestPath(g.PINodes(), t, ccg.Reservations{})
			if pn.Arrival > naive {
				naive = pn.Arrival
			}
		}
	}
	b.ReportMetric(float64(reserved), "reserved-period-cycles")
	b.ReportMetric(float64(naive), "naive-period-cycles")
	if naive > reserved {
		b.Fatal("naive schedule cannot be slower than the reserved one")
	}
}

// AblationCompaction measures reverse-order compaction's vector reduction.
func BenchmarkAblationCompaction(b *testing.B) {
	c := systems.GCD()
	sr, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := atpg.Generate(sr.Netlist, &atpg.Options{Compact: false})
	if err != nil {
		b.Fatal(err)
	}
	var compacted []gate.Pattern
	faults := sr.Netlist.Faults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compacted, err = atpg.Compact(sr.Netlist, raw.Patterns, faults); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(raw.Patterns)), "raw-vectors")
	b.ReportMetric(float64(len(compacted)), "compacted-vectors")
}

// --- Micro-benchmarks of the substrates -----------------------------------

func BenchmarkSynthesizeCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(systems.CPU()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkATPGGCD(b *testing.B) {
	sr, err := synth.Synthesize(systems.GCD())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.Generate(sr.Netlist, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkATPGSystem1 times ATPG on each System 1 logic core's
// netlist, as core.Prepare hands it to ATPG, on the default worker
// count. The netlists come from a prepare with a vector override, so
// setup runs no ATPG. The search counts per op and the vector count pin
// the search itself: a change that only makes each step cheaper leaves
// them unchanged, and so does the worker count.
func BenchmarkATPGSystem1(b *testing.B) { benchATPGSystem1(b, false) }

// BenchmarkATPGSystem1Serial is BenchmarkATPGSystem1 on one worker
// (GOMAXPROCS 1 for its run), so the snapshots keep the single-worker
// cost of each step.
func BenchmarkATPGSystem1Serial(b *testing.B) { benchATPGSystem1(b, true) }

func benchATPGSystem1(b *testing.B, serial bool) {
	ch := systems.System1()
	vecs := map[string]int{}
	for _, c := range ch.TestableCores() {
		vecs[c.Name] = 1
	}
	f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"CPU", "PREPROCESSOR", "DISPLAY"} {
		n := f.Cores[name].Synth.Netlist
		b.Run("core="+name, func(b *testing.B) {
			if serial {
				// The testing package sets GOMAXPROCS before each
				// sub-benchmark's run, so the pin goes here.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			_, m := obs.Enable(0)
			defer obs.Disable()
			var res *atpg.Result
			for i := 0; i < b.N; i++ {
				if res, err = atpg.Generate(n, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Counter("atpg.backtracks").Value())/float64(b.N), "backtracks/op")
			b.ReportMetric(float64(m.Counter("atpg.implications").Value())/float64(b.N), "implications/op")
			b.ReportMetric(float64(m.Counter("atpg.gate_evals").Value())/float64(b.N), "evals/op")
			b.ReportMetric(float64(res.Stats.Vectors), "vectors")
		})
	}
}

func BenchmarkFaultSimCPU(b *testing.B) {
	sr, err := synth.Synthesize(systems.CPU())
	if err != nil {
		b.Fatal(err)
	}
	res, err := atpg.Generate(sr.Netlist, nil)
	if err != nil {
		b.Fatal(err)
	}
	faults := sr.Netlist.Faults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsim.Combinational(sr.Netlist, res.Patterns, faults); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(faults)), "faults")
	b.ReportMetric(float64(len(res.Patterns)), "vectors")
}

func BenchmarkSequentialSimChip(b *testing.B) {
	f1, _, _, _ := flows(b)
	cn, err := core.BuildChipNetlist(f1, false)
	if err != nil {
		b.Fatal(err)
	}
	faults := report.SampleFaults(cn.Netlist.Faults(), 256, 7)
	stim := fsim.RandomStimulus(cn.Netlist, 64, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsim.Sequential(cn.Netlist, stim, faults); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHSCANInsertCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hscan.Insert(systems.CPU()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCGShortestPath times one justification search from the chip
// PIs on a held Finder, as the scheduler runs it: to DISPLAY.ALo on
// System 1, and on the 256-core generated chip to its deepest core
// input, the one a reservation-free search reaches last.
func BenchmarkCCGShortestPath(b *testing.B) {
	b.Run("system1", func(b *testing.B) {
		f1, _, _, _ := flows(b)
		g, err := ccg.Build(f1.Chip)
		if err != nil {
			b.Fatal(err)
		}
		target, _ := g.NodeIndex("DISPLAY.ALo")
		benchShortestPath(b, g, target)
	})
	b.Run("cores=256", func(b *testing.B) {
		g, err := ccg.Build(generatedFlow(b, 256).Chip)
		if err != nil {
			b.Fatal(err)
		}
		depth := g.DistancesFrom(g.PINodes())
		target := -1
		for v, n := range g.Nodes {
			if n.Kind == ccg.CoreIn && (target < 0 || depth[v] > depth[target]) {
				target = v
			}
		}
		benchShortestPath(b, g, target)
	})
}

func benchShortestPath(b *testing.B, g *ccg.Graph, target int) {
	pis := g.PINodes()
	fi := ccg.NewFinder()
	var p *ccg.PathResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p = fi.ShortestPath(g, pis, target, ccg.Reservations{}); p == nil {
			b.Fatal("no path")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Arrival), "arrival-cycles")
}

func BenchmarkEvaluateSystem1(b *testing.B) {
	f1, _, _, _ := flows(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f1.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// AblationPipelining quantifies the paper's no-pipelining assumption
// (Section 3): how much faster the chip test would be if vectors could
// stream through transparency stages back-to-back.
func BenchmarkAblationPipelining(b *testing.B) {
	f1, _, _, _ := flows(b)
	e, err := f1.Evaluate()
	if err != nil {
		b.Fatal(err)
	}
	var pipe map[string]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe = sched.PipelinedTAT(e.Sched)
	}
	total := 0
	for _, v := range pipe {
		total += v
	}
	b.ReportMetric(float64(e.Sched.TotalTAT()), "conservative-TAT-cycles")
	b.ReportMetric(float64(total), "pipelined-bound-cycles")
}

// --- Extensions beyond the paper's tables ---------------------------------

// Interconnect test plan: the paper's claimed advantage over the test bus
// (Section 1), made explicit — every inter-core wire gets walking/constant
// patterns routed through the transparency fabric. The CCG is built and
// scheduled once outside the timer; each iteration plans the interconnect
// on it. System 1 has a handful of inter-core nets, the 256-core
// generated chip hundreds.
func BenchmarkInterconnectPlan(b *testing.B) {
	b.Run("system1", func(b *testing.B) {
		f1, _, _, _ := flows(b)
		benchInterconnectPlan(b, f1)
	})
	b.Run("cores=256", func(b *testing.B) {
		benchInterconnectPlan(b, generatedFlow(b, 256))
	})
}

func benchInterconnectPlan(b *testing.B, f *core.Flow) {
	g, err := ccg.Build(f.Chip)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sched.Schedule(f.Chip, g); err != nil {
		b.Fatal(err)
	}
	var ir *sched.InterconnectResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir, err = sched.ScheduleInterconnect(f.Chip, g)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(ir.Nets)), "nets-tested")
	b.ReportMetric(float64(ir.TotalTAT), "interconnect-TAT-cycles")
}

// Hierarchical flow (Section 1's "hierarchical fashion" claim): flatten
// System 2 and run the chip-level flow on the two-level system.
func BenchmarkHierarchicalFlow(b *testing.B) {
	_, _, f2, _ := flows(b)
	b.ResetTimer()
	var tat int
	for i := 0; i < b.N; i++ {
		meta, _, err := hier.Flatten(f2, "SYS2CORE")
		if err != nil {
			b.Fatal(err)
		}
		super := hier.Embed("supersoc", meta, systems.GCD())
		sf, err := core.Prepare(super, &core.Options{
			VectorOverride: map[string]int{meta.Name: 40, "GCD": 25},
		})
		if err != nil {
			b.Fatal(err)
		}
		e, err := sf.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		tat = e.TAT
	}
	b.ReportMetric(float64(tat), "two-level-TAT-cycles")
}

// End-to-end mechanism execution: one vector physically delivered from
// chip input NUM through PREPROCESSOR and CPU transparency to the
// DISPLAY, on the RTL chip simulator.
func BenchmarkVectorDelivery(b *testing.B) {
	f, err := core.Prepare(systems.System1(), &core.Options{
		VectorOverride: map[string]int{"CPU": 10, "PREPROCESSOR": 10, "DISPLAY": 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	prep, _ := f.Chip.CoreByName("PREPROCESSOR")
	cpu, _ := f.Chip.CoreByName("CPU")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := chipsim.New(f.Chip)
		if err != nil {
			b.Fatal(err)
		}
		ps, _ := s.Core("PREPROCESSOR")
		cs, _ := s.Core("CPU")
		l1, err := chipsim.EngageJustification(ps, prep.Versions[0], "DB")
		if err != nil {
			b.Fatal(err)
		}
		l2, err := chipsim.EngageJustification(cs, cpu.Versions[1], "AddrLo")
		if err != nil {
			b.Fatal(err)
		}
		s.SetPI("NUM", 0x3C)
		for c := 0; c < l1+l2; c++ {
			if err := s.Step(); err != nil {
				b.Fatal(err)
			}
		}
		got, err := s.CoreInput("DISPLAY", "ALo")
		if err != nil || got != 0x3C {
			b.Fatalf("delivery failed: %#x, %v", got, err)
		}
	}
}

// --- Scaling: seeded generated SoCs, 8 to 64 cores -----------------------

// generatedFlow prepares the seeded socgen chip the BENCH_<n>.json
// ladder tracks (generation and ATPG-skipping preparation stay outside
// every timer).
func generatedFlow(b *testing.B, n int) *core.Flow {
	b.Helper()
	ch, err := socgen.Generate(socgen.Params{Seed: 1998, Cores: n, Topology: socgen.RandomDAG})
	if err != nil {
		b.Fatal(err)
	}
	vecs := map[string]int{}
	for i, c := range ch.TestableCores() {
		vecs[c.Name] = 10 + i%23
	}
	f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkGeneratedChip measures the explorer's hot loop on socgen
// chips of growing core count: evaluating a candidate that differs from
// an already-evaluated base in ONE core's version. The delta evaluator
// evaluates the base once outside the timer and adopts nothing after
// it, so every timed iteration is a pure incremental evaluation of a
// different single-core flip. BenchmarkGeneratedChipFull times the same candidates through the
// full from-scratch path; the ratio between the two is the speedup the
// BENCH_<n>.json series tracks per PR.
func BenchmarkGeneratedChip(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			f := generatedFlow(b, n)
			d := core.NewDeltaEvaluator(f)
			d.AdoptCandidates = false
			base := f.CurrentSelection()
			if _, err := d.EvaluateSelectionCtx(context.Background(), base); err != nil {
				b.Fatal(err)
			}
			flippable := flippableCores(f)
			var e *core.Evaluation
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				e, err = d.EvaluateSelectionCtx(context.Background(), flipOne(base, flippable, i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := d.Stats(); st.Deltas == 0 {
				b.Fatalf("no iteration took the delta path: %+v", st)
			}
			b.ReportMetric(float64(e.TAT), "TAT-cycles")
			b.ReportMetric(float64(len(f.Chip.Nets)), "nets")
		})
	}
}

// BenchmarkGeneratedChipFull evaluates the same single-core-flip
// candidates as BenchmarkGeneratedChip through the full from-scratch
// path — the delta benchmark's baseline.
func BenchmarkGeneratedChipFull(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			f := generatedFlow(b, n)
			base := f.CurrentSelection()
			flippable := flippableCores(f)
			var e *core.Evaluation
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				e, err = f.EvaluateSelection(flipOne(base, flippable, i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(e.TAT), "TAT-cycles")
			b.ReportMetric(float64(len(f.Chip.Nets)), "nets")
		})
	}
}

// BenchmarkImproveWalk times the Section 5.2 TAT walk on the seed-1998
// RandomDAG socgen chips of 64 and 256 cores: the unbudgeted MinimizeTAT
// ImproveCtx from the all-V1 selection, each iteration with a fresh
// evaluator. Preparation (vector override, no ATPG) and the selection
// reset stay outside the timer. The 256-core walk is the one perfbench's
// gen256-improve workload runs and must end where that workload
// requires: 60 moves to TAT 32415.
func BenchmarkImproveWalk(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			ch, err := socgen.Generate(socgen.Params{Seed: 1998, Cores: n, Topology: socgen.RandomDAG})
			if err != nil {
				b.Fatal(err)
			}
			f, err := core.Prepare(ch, flowcmd.GenVectorOverride(ch))
			if err != nil {
				b.Fatal(err)
			}
			var res *explore.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				resetSelection(f)
				b.StartTimer()
				res, err = explore.ImproveCtx(context.Background(), f, explore.MinimizeTAT, 1<<30, explore.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n == 256 && (len(res.Steps) != 60 || res.Final.TAT != 32415) {
				b.Fatalf("%d moves to TAT %d; want 60 to 32415", len(res.Steps), res.Final.TAT)
			}
			b.ReportMetric(float64(res.Final.TAT), "TAT-cycles")
			b.ReportMetric(float64(len(res.Steps)), "steps")
		})
	}
}

// BenchmarkPrepareStages times core prepare on the seed-1 256-core
// RandomDAG socgen chip, one stage at a time: synthesis of every core,
// HSCAN insertion, the RCG plus version ladder of every testable core
// (over HSCAN results computed outside the timer, whose register-path
// walks trans.Build reuses, as in core.Prepare), and the whole
// core.Prepare with the generated chips' vector override, which skips
// ATPG. socgen's core i depends only on the seed and i, so these are the
// cores of every seed-1 `compare -study` chip.
func BenchmarkPrepareStages(b *testing.B) {
	ch, err := socgen.Generate(socgen.Params{Seed: 1, Cores: 256, Topology: socgen.RandomDAG})
	if err != nil {
		b.Fatal(err)
	}
	testable := ch.TestableCores()
	scans := make([]*hscan.Result, len(testable))
	for i, c := range testable {
		if scans[i], err = hscan.Insert(c.RTL); err != nil {
			b.Fatal(err)
		}
	}
	stages := []struct {
		name string
		run  func() error
	}{
		{"synth", func() error {
			for _, c := range ch.Cores {
				if _, err := synth.Synthesize(c.RTL); err != nil {
					return err
				}
			}
			return nil
		}},
		{"hscan", func() error {
			for _, c := range testable {
				if _, err := hscan.Insert(c.RTL); err != nil {
					return err
				}
			}
			return nil
		}},
		{"versions", func() error {
			for i, c := range testable {
				g, err := trans.Build(c.RTL, scans[i])
				if err != nil {
					return err
				}
				if _, err := trans.Versions(g); err != nil {
					return err
				}
			}
			return nil
		}},
		{"prepare", func() error {
			_, err := core.Prepare(ch, flowcmd.GenVectorOverride(ch))
			return err
		}},
	}
	for _, st := range stages {
		b.Run("stage="+st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := st.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWrappedChip measures the wrapped-core/TAM baseline end to end
// on the same socgen ladder: per-core chain balancing (exact partition
// up to the exact-search cutoff, LPT above it) plus the chip-level TAM
// schedule at width 16. Chip preparation stays outside the timer, so
// the series isolates the wrap evaluator that the -study corpus runs at
// scale.
func BenchmarkWrappedChip(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			f := generatedFlow(b, n)
			var r *wrap.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r = f.EvaluateWrapper(16, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(r.ChipTAT), "TAT-cycles")
			b.ReportMetric(float64(r.DFTCells()), "DFT-cells")
		})
	}
}

// flippableCores lists the cores a single-version flip can change.
func flippableCores(f *core.Flow) []*soc.Core {
	var out []*soc.Core
	for _, c := range f.Chip.TestableCores() {
		if len(c.Versions) >= 2 {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		panic("generated chip has no multi-version cores")
	}
	return out
}

// flipOne returns base with iteration i's core moved to a different
// version, cycling through cores first and version offsets second.
func flipOne(base map[string]int, cores []*soc.Core, i int) map[string]int {
	c := cores[i%len(cores)]
	nv := len(c.Versions)
	v := (base[c.Name] + 1 + (i/len(cores))%(nv-1)) % nv
	if v == base[c.Name] {
		v = (v + 1) % nv
	}
	sel := make(map[string]int, len(base))
	for k, vv := range base {
		sel[k] = vv
	}
	sel[c.Name] = v
	return sel
}

// --- Robustness: degradation campaign under random interconnect cuts ----

// BenchmarkDegradationCampaign times degraded evaluation over campaigns
// of random fault sets. system1 injects k random faults into System 1
// (k = 1..3, eight seeded draws each): the campaign must finish with zero
// flow errors, and the mean vector-weighted coverage of the testable
// subset traces the degradation curve reported in EXPERIMENTS.md.
// cores=64 runs the campaign socetd-mix submits for its generated chip,
// 8 sets of 2 faults on the seed-1998 64-core RandomDAG chip, where the
// fallback trials are most of the cost.
func BenchmarkDegradationCampaign(b *testing.B) {
	b.Run("system1", func(b *testing.B) {
		f1, _, _, _ := flows(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range []int{1, 2, 3} {
				mean := runCampaign(b, f1, resil.RandomSets(f1.Chip, 8, k, 1998))
				b.ReportMetric(mean, "mean-coverage-k"+string(rune('0'+k)))
			}
		}
	})
	b.Run("cores=64", func(b *testing.B) {
		ch, err := socgen.Generate(socgen.Params{Seed: 1998, Cores: 64, Topology: socgen.RandomDAG})
		if err != nil {
			b.Fatal(err)
		}
		f, err := core.Prepare(ch, flowcmd.GenVectorOverride(ch))
		if err != nil {
			b.Fatal(err)
		}
		runs := resil.RandomSets(ch, 8, 2, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.ReportMetric(runCampaign(b, f, runs), "mean-coverage")
		}
	})
}

// runCampaign executes a campaign of runs over f, fails on any flow
// error and returns the mean coverage.
func runCampaign(b *testing.B, f *core.Flow, runs [][]resil.Fault) float64 {
	c := resil.Campaign{Flow: f, Runs: runs}
	outs, err := c.Execute(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	sum, degraded := 0.0, 0
	for _, o := range outs {
		if o.Err != nil {
			b.Fatalf("run %d (%s): %v", o.Index, resil.FaultSetString(o.Faults), o.Err)
		}
		sum += o.Eval.Report.Coverage
		if o.Eval.Report.Degraded() {
			degraded++
		}
	}
	mean := sum / float64(len(outs))
	b.Logf("%d faults: %d/%d runs degraded, mean coverage %.3f", len(runs[0]), degraded, len(outs), mean)
	return mean
}

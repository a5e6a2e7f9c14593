package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/systems"
)

var (
	sharedFlow   *core.Flow
	sharedPoints []explore.Point
)

func fixtures(t testing.TB) (*core.Flow, []explore.Point) {
	t.Helper()
	if sharedFlow == nil {
		f, err := core.Prepare(systems.System1(), nil)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		points, err := explore.EnumerateCtx(context.Background(), f, explore.Options{})
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
		sharedFlow, sharedPoints = f, points
	}
	// Reset selection to min-area between tests.
	sel := map[string]int{}
	for _, c := range sharedFlow.Chip.TestableCores() {
		sel[c.Name] = 0
	}
	sharedFlow.SelectVersions(sel)
	return sharedFlow, sharedPoints
}

func TestVersionTableFigure6(t *testing.T) {
	f, _ := fixtures(t)
	cpu, _ := f.Chip.CoreByName("CPU")
	rows := VersionTable(cpu)
	if len(rows) < 3 {
		t.Fatalf("CPU ladder has %d rows, want >= 3 (Figure 6)", len(rows))
	}
	// Figure 6 values: V1 justifies AddrLo in 6, AddrHi in 2; the final
	// version does both in 1.
	if got := rows[0].Latencies["->AddrLo"]; got != 6 {
		t.Errorf("V1 ->AddrLo = %d, want 6", got)
	}
	if got := rows[0].Latencies["->AddrHi"]; got != 2 {
		t.Errorf("V1 ->AddrHi = %d, want 2", got)
	}
	last := rows[len(rows)-1]
	if last.Latencies["->AddrLo"] != 1 || last.Latencies["->AddrHi"] != 1 {
		t.Errorf("final version latencies = %v, want 1/1", last.Latencies)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Cells < rows[i-1].Cells {
			t.Errorf("overhead not monotone: %d then %d", rows[i-1].Cells, rows[i].Cells)
		}
	}
	text := FormatVersionTable("CPU", rows)
	if !strings.Contains(text, "Version 1") || !strings.Contains(text, "->AddrLo") {
		t.Errorf("formatted table missing content:\n%s", text)
	}
}

func TestWorkedExampleSection3(t *testing.T) {
	f, _ := fixtures(t)
	ex, err := WorkedExample(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Rows) < 3 {
		t.Fatalf("worked example has %d rows, want one per CPU version", len(ex.Rows))
	}
	// TAT must improve monotonically with faster CPU versions, and every
	// row follows vectors*period+tail.
	for i, r := range ex.Rows {
		if r.TAT != r.Vectors*r.Period+r.Tail {
			t.Errorf("row %d: TAT %d != %d*%d+%d", i, r.TAT, r.Vectors, r.Period, r.Tail)
		}
		if i > 0 && r.TAT > ex.Rows[i-1].TAT {
			t.Errorf("row %d: TAT grew with a faster CPU (%d -> %d)", i, ex.Rows[i-1].TAT, r.TAT)
		}
	}
	// FSCAN-BSCAN must be slower than every SOCET configuration (the
	// Section 3 point: 9115 vs 4728/2103/1578).
	for _, r := range ex.Rows {
		if ex.FscanBscanTAT <= r.TAT {
			t.Errorf("FSCAN-BSCAN TAT %d should exceed SOCET %s TAT %d", ex.FscanBscanTAT, r.Config, r.TAT)
		}
	}
}

func TestTable1(t *testing.T) {
	f, points := fixtures(t)
	rows := Table1(f, points)
	if len(rows) != 3 {
		t.Fatalf("Table 1 has %d rows, want 3", len(rows))
	}
	minArea, minLat, minTAT := rows[0], rows[1], rows[2]
	if minArea.AreaOv > minLat.AreaOv {
		t.Errorf("min-area row costs more than min-latency: %d vs %d", minArea.AreaOv, minLat.AreaOv)
	}
	if minTAT.TATime > minLat.TATime {
		t.Errorf("min-TAT row slower than min-latency: %d vs %d", minTAT.TATime, minLat.TATime)
	}
	// The paper's ~4.5x TAT spread; require >= 2x.
	if minArea.TATime < 2*minTAT.TATime {
		t.Errorf("TAT spread too small: %d vs %d", minArea.TATime, minTAT.TATime)
	}
	// All rows share the same coverage (same test sets).
	if minArea.FCov != minTAT.FCov || minArea.TestEff != minTAT.TestEff {
		t.Error("coverage must not depend on the design point")
	}
	if minArea.FCov < 90 || minArea.TestEff < 98 {
		t.Errorf("coverage %.1f / efficiency %.1f lower than expected", minArea.FCov, minArea.TestEff)
	}
}

func TestTable2Shape(t *testing.T) {
	f, points := fixtures(t)
	t2, err := MakeTable2(f, points)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's orderings (Table 2):
	if t2.HscanPct >= t2.FscanPct {
		t.Errorf("HSCAN %.1f%% should undercut FSCAN %.1f%%", t2.HscanPct, t2.FscanPct)
	}
	if t2.SocetMinAreaPct >= t2.BscanPct {
		t.Errorf("SOCET chip DFT %.1f%% should undercut boundary scan %.1f%%", t2.SocetMinAreaPct, t2.BscanPct)
	}
	if t2.SocetMinAreaPct > t2.SocetMinTATPct {
		t.Errorf("min-area SOCET %.1f%% should not exceed min-TAT %.1f%%", t2.SocetMinAreaPct, t2.SocetMinTATPct)
	}
	if t2.SocetMinTATTotalPct >= t2.FscanBscanTotalPct {
		t.Errorf("SOCET total %.1f%% should undercut FSCAN-BSCAN total %.1f%%",
			t2.SocetMinTATTotalPct, t2.FscanBscanTotalPct)
	}
	if t2.OrigCells < 6000 {
		t.Errorf("orig cells = %d, want ~8000", t2.OrigCells)
	}
}

func TestTable3Shape(t *testing.T) {
	f, points := fixtures(t)
	t3, err := MakeTable3(f, points, &Table3Options{Cycles: 96, FaultSample: 600})
	if err != nil {
		t.Fatal(err)
	}
	// Orig and HSCAN-only coverage is poor; DFT'd coverage is high — the
	// core message of Table 3.
	if t3.OrigFC >= 60 {
		t.Errorf("original chip FC %.1f%% suspiciously high", t3.OrigFC)
	}
	if t3.SocetFC < 90 {
		t.Errorf("SOCET FC %.1f%% too low", t3.SocetFC)
	}
	if t3.SocetFC != t3.FscanBscanFC {
		t.Error("SOCET and FSCAN-BSCAN apply the same test sets: equal FC expected")
	}
	if t3.OrigFC >= t3.SocetFC {
		t.Error("DFT must improve on the raw chip")
	}
	// SOCET's min-TAT point must be far faster than FSCAN-BSCAN; even the
	// min-area point wins (17,387 vs 36,152 in the paper).
	if t3.SocetMinArea >= t3.FscanBscanTAT {
		t.Errorf("SOCET min-area TAT %d should beat FSCAN-BSCAN %d", t3.SocetMinArea, t3.FscanBscanTAT)
	}
	if 2*t3.SocetMinTAT >= t3.FscanBscanTAT {
		t.Errorf("SOCET min-TAT %d should be at least 2x faster than FSCAN-BSCAN %d",
			t3.SocetMinTAT, t3.FscanBscanTAT)
	}
}

func TestFigure10Format(t *testing.T) {
	f, points := fixtures(t)
	_ = f
	fig := Figure10(points)
	if len(fig) != len(points) {
		t.Fatalf("figure has %d points, want %d", len(fig), len(points))
	}
	text := FormatFigure10(fig)
	if !strings.Contains(text, "TAT") {
		t.Error("missing header")
	}
	lines := strings.Count(text, "\n")
	if lines != len(points)+1 {
		t.Errorf("formatted %d lines, want %d", lines, len(points)+1)
	}
}

func TestSampleFaults(t *testing.T) {
	f, _ := fixtures(t)
	nl, err := core.BuildChipNetlist(f, false)
	if err != nil {
		t.Fatal(err)
	}
	faults := nl.Netlist.Faults()
	s := SampleFaults(faults, 100, 1)
	if len(s) != 100 {
		t.Errorf("sampled %d, want 100", len(s))
	}
	s2 := SampleFaults(faults, len(faults)+10, 1)
	if len(s2) != len(faults) {
		t.Error("oversampling should return all faults")
	}
}

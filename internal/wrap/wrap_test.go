package wrap

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/chipsim"
	"repro/internal/hscan"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/soc"
	"repro/internal/socgen"
)

// testCore builds a synthetic wrapped-core fixture: in/out port bits, one
// internal HSCAN chain per entry of chains (the entry is its register
// count), and a fixed vector count.
func testCore(name string, in, out, vectors int, chains ...int) *soc.Core {
	rc := &rtl.Core{Name: name}
	if in > 0 {
		rc.Ports = append(rc.Ports, rtl.Port{Name: "I", Dir: rtl.In, Width: in})
	}
	if out > 0 {
		rc.Ports = append(rc.Ports, rtl.Port{Name: "O", Dir: rtl.Out, Width: out})
	}
	scan := &hscan.Result{}
	regN := 0
	for _, d := range chains {
		var hc hscan.Chain
		for k := 0; k < d; k++ {
			r := fmt.Sprintf("R%d", regN)
			regN++
			rc.Regs = append(rc.Regs, rtl.Register{Name: r, Width: 1})
			hc.Regs = append(hc.Regs, r)
		}
		scan.Chains = append(scan.Chains, hc)
		if d > scan.MaxDepth {
			scan.MaxDepth = d
		}
	}
	return &soc.Core{Name: name, RTL: rc, Scan: scan, Vectors: vectors}
}

func testChip(cores ...*soc.Core) *soc.Chip {
	return &soc.Chip{Name: "wraptest", Cores: cores}
}

// refWrapCore is the reference wrapAllWidths is checked against: it
// balances the core from scratch at width w with the unbounded search,
// keeping the best candidate over every chain count m ≤ w (m ascending,
// strict better), and builds that candidate's CoreResult.
func refWrapCore(c *soc.Core, w int) *CoreResult {
	in, out := c.RTL.InputBits(), c.RTL.OutputBits()
	loads := chainLoads(c)
	exact := len(loads) <= ExactMaxChains
	var best *candidate
	for m := 1; m <= w; m++ {
		for _, cand := range balance(loads, m, exact, math.MaxInt) {
			cand.fill(in, out)
			if best == nil || cand.better(best) {
				cc := cand
				best = &cc
			}
		}
	}
	cr := &CoreResult{Core: c.Name, Vectors: c.Vectors, Exact: exact, Chains: best.chains(loads)}
	for _, wc := range cr.Chains {
		cr.SI = max(cr.SI, wc.SI)
		cr.SO = max(cr.SO, wc.SO)
	}
	cr.Width = len(cr.Chains)
	cr.TAT = coreTAT(cr.SI, cr.SO, c.Vectors)
	cr.Area.Add(cell.BScell, in+out)
	cr.Area.Add(cell.Mux2, len(loads))
	cr.Area.Add(cell.DFF, 4)
	cr.Area.Add(cell.And2, 2)
	return cr
}

// referenceDiffs returns the widths at which one wrapAllWidths-shaped
// result differs from the reference.
func referenceDiffs(c *soc.Core, crs []*CoreResult) []int {
	var diffs []int
	for w := 1; w <= len(crs); w++ {
		if !reflect.DeepEqual(crs[w-1], refWrapCore(c, w)) {
			diffs = append(diffs, w)
		}
	}
	return diffs
}

// checkAgainstReference requires every entry of one wrapAllWidths result
// to equal the reference at its width.
func checkAgainstReference(t *testing.T, c *soc.Core, crs []*CoreResult) {
	t.Helper()
	if diffs := referenceDiffs(c, crs); len(diffs) > 0 {
		w := diffs[0]
		t.Fatalf("core %s width %d: got %+v, reference %+v", c.Name, w, crs[w-1], refWrapCore(c, w))
	}
}

// referenceCores is the generated corpus the bounded search is checked
// on: every core of the corpusSeeds chips, and the 256 cores of the
// seed-1 RandomDAG chip. socgen's core i depends only on the seed and i,
// so those are every distinct core of `compare -study`.
func referenceCores(t testing.TB) []*soc.Core {
	var cores []*soc.Core
	for _, p := range append(corpusSeeds(), socgen.Params{Seed: 1, Cores: 256, Topology: socgen.RandomDAG}) {
		cores = append(cores, corpusChip(t, p).TestableCores()...)
	}
	return cores
}

// TestWrapAllWidthsMatchesReference requires one wrapAllWidths call at
// W=16, whose search is bounded, to equal the unbounded from-scratch
// reference at every width, on seeded random core shapes (no chains,
// exact search, LPT fallback; with and without boundary bits) and on
// every core of referenceCores.
func TestWrapAllWidthsMatchesReference(t *testing.T) {
	const w = 16
	rng := rand.New(rand.NewSource(1))
	check := func(k, maxLoad, in, out int) {
		chains := make([]int, k)
		for j := range chains {
			chains[j] = rng.Intn(maxLoad)
		}
		c := testCore(fmt.Sprintf("K%d", k), in, out, rng.Intn(30), chains...)
		checkAgainstReference(t, c, wrapAllWidths(c, w))
	}
	for _, k := range []int{0, 1, 3, 5, ExactMaxChains + 1, 13} {
		check(k, 25, 0, 0)
		check(k, 25, 1+rng.Intn(40), 0)
		check(k, 25, 0, 1+rng.Intn(40))
		check(k, 25, 1+rng.Intn(40), 1+rng.Intn(40))
	}
	// The largest exact size once, with small loads: the reference
	// enumerates up to 21147 partitions per chain count there.
	check(ExactMaxChains, 4, 1+rng.Intn(40), 1+rng.Intn(40))
	for _, c := range referenceCores(t) {
		checkAgainstReference(t, c, wrapAllWidths(c, w))
	}
}

// TestUnsoundBoundFailsReference is the tamper twin of
// TestWrapAllWidthsMatchesReference: bounded one register stage below
// the incumbent's largest group, the search drops groupings that tie
// that group and win with one more chain, and the same comparison must
// catch it. (The incumbent's hi−1 would be no tamper: a grouping whose
// largest group reaches hi has lo ≥ hi, so it cannot win either.)
func TestUnsoundBoundFailsReference(t *testing.T) {
	const w = 16
	unsound := func(best *candidate) int { return best.ffs[0] - 1 }
	changed, results := 0, 0
	for _, c := range referenceCores(t) {
		changed += len(referenceDiffs(c, wrapWidths(c, w, unsound)))
		results += w
	}
	t.Logf("the unsound bound changed %d of %d (core, width) results", changed, results)
	if changed == 0 {
		t.Fatal("an unsound bound changed no result: the reference comparison cannot see a wrong prune")
	}
}

func TestWaterfill(t *testing.T) {
	cases := []struct {
		base []int
		bits int
		max  int
	}{
		{[]int{5, 2, 1}, 0, 5},
		{[]int{5, 2, 1}, 3, 5}, // fills 2->5 is 3: levels to 5? 3 bits fit under 5 (3+4=7 cap) -> max 5
		{[]int{5, 2, 1}, 7, 5}, // exactly fills both to 5
		{[]int{5, 2, 1}, 8, 6}, // one bit over
		{[]int{0, 0}, 5, 3},    // ceil(5/2)
		{[]int{4}, 3, 7},       // single slot
		{nil, 4, 0},            // no slots: nothing to fill
		{[]int{3, 3, 3}, 0, 3}, // no bits
		{[]int{1, 1, 1}, 9, 4}, // even fill
	}
	for _, c := range cases {
		alloc, m := waterfill(c.base, c.bits)
		if m != c.max {
			t.Errorf("waterfill(%v, %d): max %d, want %d", c.base, c.bits, m, c.max)
		}
		sum := 0
		for j, a := range alloc {
			sum += a
			if c.base[j]+a > m {
				t.Errorf("waterfill(%v, %d): slot %d at %d exceeds reported max %d", c.base, c.bits, j, c.base[j]+a, m)
			}
		}
		if len(c.base) > 0 && sum != c.bits {
			t.Errorf("waterfill(%v, %d): allocated %d bits", c.base, c.bits, sum)
		}
	}
}

// TestExactBeatsLPT pins the classic LPT-suboptimal instance: chains
// {3,3,2,2,2} on two wrapper chains. LPT reaches makespan 7; the exact
// balancer must find the optimal {3,3}/{2,2,2} split of 6.
func TestExactBeatsLPT(t *testing.T) {
	c := testCore("A", 0, 0, 10, 3, 3, 2, 2, 2)
	cr := wrapAllWidths(c, 2)[1]
	if !cr.Exact {
		t.Fatalf("5 chains should balance exactly")
	}
	if cr.SI != 6 || cr.SO != 6 {
		t.Fatalf("exact balance got si=%d so=%d, want 6/6", cr.SI, cr.SO)
	}
	lpt := lptCandidate([]int{3, 3, 2, 2, 2}, 2)
	lpt.fill(0, 0)
	if lpt.hi != 7 {
		t.Fatalf("LPT fixture drifted: makespan %d, want 7 (test premise)", lpt.hi)
	}
}

// TestCoreTATFormula checks the wrapper arithmetic on a DISPLAY-like
// core: 20 input bits, 10 output bits, one 4-register chain, 105 vectors
// at width 1 gives si=24, so=14, TAT=(1+24)*105+14.
func TestCoreTATFormula(t *testing.T) {
	c := testCore("DISPLAY", 20, 10, 105, 4)
	cr := wrapAllWidths(c, 1)[0]
	if cr.SI != 24 || cr.SO != 14 {
		t.Fatalf("si=%d so=%d, want 24/14", cr.SI, cr.SO)
	}
	want := (1+24)*105 + 14
	if cr.TAT != want {
		t.Fatalf("TAT %d, want %d", cr.TAT, want)
	}
	if cr.Width != 1 || len(cr.Chains) != 1 {
		t.Fatalf("width-1 wrap built %d chains", len(cr.Chains))
	}
	// Structural coverage of the recorded items.
	in, scan, out := 0, 0, 0
	for _, it := range cr.Chains[0].Items {
		switch it.Kind {
		case ItemInputCells:
			in += it.Bits
		case ItemScanChain:
			scan += it.Bits
		case ItemOutputCells:
			out += it.Bits
		}
	}
	if in != 20 || scan != 4 || out != 10 {
		t.Fatalf("items cover in=%d scan=%d out=%d, want 20/4/10", in, scan, out)
	}
}

func TestCoreTATMonotoneInWidth(t *testing.T) {
	c := testCore("B", 17, 9, 23, 4, 3, 3, 2)
	prev := -1
	for i, cr := range wrapAllWidths(c, 8) {
		w := i + 1
		if prev >= 0 && cr.TAT > prev {
			t.Fatalf("width %d TAT %d exceeds width %d TAT %d", w, cr.TAT, w-1, prev)
		}
		prev = cr.TAT
	}
}

func TestEvaluateSingleBusSumsTATs(t *testing.T) {
	a := testCore("A", 4, 4, 10, 2)
	b := testCore("B", 6, 2, 7, 3)
	r := Evaluate(testChip(a, b), 1, nil)
	if r.NumBuses != 1 {
		t.Fatalf("W=1 built %d buses", r.NumBuses)
	}
	want := wrapAllWidths(a, 1)[0].TAT + wrapAllWidths(b, 1)[0].TAT
	if r.ChipTAT != want {
		t.Fatalf("chip TAT %d, want serial sum %d", r.ChipTAT, want)
	}
}

// TestEvaluateCountsCoresWrapped requires wrap.cores_wrapped to count
// each core once per evaluation, however many TAM widths it is wrapped at.
func TestEvaluateCountsCoresWrapped(t *testing.T) {
	ch := testChip(testCore("A", 4, 4, 10, 2), testCore("B", 6, 2, 7, 3), testCore("C", 3, 5, 9, 1, 2))
	defer obs.Disable()
	for _, w := range []int{1, 4, 16} {
		_, m := obs.Enable(0)
		Evaluate(ch, w, nil)
		if n := m.Counter("wrap.cores_wrapped").Value(); n != 3 {
			t.Errorf("W=%d: wrap.cores_wrapped = %d, want 3", w, n)
		}
	}
}

func TestEvaluateWorkerDeterminism(t *testing.T) {
	var cores []*soc.Core
	for i := 0; i < 9; i++ {
		cores = append(cores, testCore(fmt.Sprintf("C%d", i), 3+i, 2+i%4, 5+i, 1+i%3, 2))
	}
	ch := testChip(cores...)
	base := Evaluate(ch, 5, &Options{Workers: 1})
	for _, workers := range []int{2, 4, 16} {
		r := Evaluate(ch, 5, &Options{Workers: workers})
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", workers, base.Format(), r.Format())
		}
	}
}

func TestSplitScanChainClones(t *testing.T) {
	c := testCore("A", 2, 2, 5, 4, 1)
	ch := testChip(c)
	split, err := SplitScanChain(ch, "A", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Scan.Chains); got != 2 {
		t.Fatalf("original mutated: %d chains", got)
	}
	sc, _ := split.CoreByName("A")
	if got := len(sc.Scan.Chains); got != 3 {
		t.Fatalf("split chip has %d chains, want 3", got)
	}
	depths := []int{sc.Scan.Chains[0].Depth(), sc.Scan.Chains[1].Depth(), sc.Scan.Chains[2].Depth()}
	if depths[0] != 1 || depths[1] != 1 || depths[2] != 3 {
		t.Fatalf("split depths %v, want [1 1 3]", depths)
	}
	if _, err := SplitScanChain(ch, "A", 0, 4); err == nil {
		t.Fatal("split at chain depth should fail")
	}
	if _, err := SplitScanChain(ch, "Z", 0, 1); err == nil {
		t.Fatal("split on unknown core should fail")
	}
}

// TestElaboratePulseTransit is the wiring ground truth for the proptest
// replay: on a hand-built wrapped core, shifting a constant 1 through the
// elaborated chain must raise each segment tap at exactly the structural
// cycle counts.
func TestElaboratePulseTransit(t *testing.T) {
	c := testCore("A", 3, 2, 5, 2)
	ch := testChip(c)
	r := Evaluate(ch, 1, nil)
	ech, probes, err := Elaborate(ch, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 1 {
		t.Fatalf("%d probes, want 1", len(probes))
	}
	p := probes[0]
	if p.InBits != 3 || p.ScanBits != 2 || p.OutBits != 2 {
		t.Fatalf("probe segments %d/%d/%d, want 3/2/2", p.InBits, p.ScanBits, p.OutBits)
	}
	sim, err := chipsim.New(ech)
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := sim.Core("A")
	if !ok {
		t.Fatal("no simulator for core A")
	}
	for _, m := range p.Muxes {
		if err := cs.ForceMux(m, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.SetPI(p.PI, 1); err != nil {
		t.Fatal(err)
	}
	arrival := map[string]int{}
	for cyc := 0; cyc <= p.Stages(); cyc++ {
		for _, po := range []string{p.TapIn, p.TapScan, p.WSO} {
			if _, seen := arrival[po]; seen {
				continue
			}
			v, err := sim.ChipOutput(po)
			if err != nil {
				t.Fatal(err)
			}
			if v&1 == 1 {
				arrival[po] = cyc
			}
		}
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if arrival[p.TapIn] != 3 || arrival[p.TapScan] != 5 || arrival[p.WSO] != 7 {
		t.Fatalf("arrivals in=%d scan=%d wso=%d, want 3/5/7",
			arrival[p.TapIn], arrival[p.TapScan], arrival[p.WSO])
	}
}

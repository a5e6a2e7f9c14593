// Package wrap implements a P1500-style wrapped-core test architecture:
// every core port bit gets a wrapper boundary cell, the boundary cells and
// the core's internal HSCAN chains are concatenated into up to W balanced
// wrapper scan chains, and a chip-level test-access mechanism (TAM) of
// width W carries test data between the chip pins and the wrapped cores.
// It is the third baseline next to FSCAN-BSCAN (internal/bscan) and the
// test bus (internal/testbus), modeling the wrapper/TAM schemes that
// dominate the related work (P1500 BIST wrappers, precomputed-pattern
// wrappers for cores without ATPG access).
//
// The accounting follows the standard wrapper-chain TAT model: with
// per-chain scan-in lengths si_j = in_j + ff_j and scan-out lengths
// so_j = ff_j + out_j,
//
//	si = max_j si_j, so = max_j so_j
//	TAT(core) = (1 + max(si, so)) × V + min(si, so)
//
// (V shift-in/apply periods pipelined with shift-out, plus the final
// flush). Internal HSCAN chains shift at register granularity, matching
// internal/hscan's depth model; boundary cells shift one bit per cycle.
//
// Chain balancing is exact for cores with at most ExactMaxChains internal
// chains — every set partition of the chains is enumerated (deduplicated
// by its multiset of register loads) and boundary cells are distributed by
// waterfilling, so the reported core TAT is the true optimum of the model.
// Larger cores fall back to LPT. Evaluating a core at width w takes the
// best result over all chain counts m ≤ w, which makes the per-core TAT
// monotonically non-increasing in w by construction.
//
// The chip-level scheduler splits the W TAM wires into b equal buses
// (b = 1..W), assigns cores to buses by snaking the descending width-1
// TAT order, and tests the cores sharing a bus sequentially:
//
//	TAT(chip) = min over b of max over buses of Σ TAT(core, busWidth)
//
// The width-1 TAT sort key is partition-independent (a single wrapper
// chain always carries every boundary cell and register), so the
// assignment never changes when a chain is split or W grows — which makes
// the chip TAT provably monotone in W and non-increasing under chain
// splits wherever the per-core balancer is exact.
package wrap

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cell"
	"repro/internal/fanout"
	"repro/internal/hscan"
	"repro/internal/obs"
	"repro/internal/soc"
)

// hchain shortens the hscan chain type for the split helper.
type hchain = hscan.Chain

// ExactMaxChains is the largest internal-chain count balanced by exact
// set-partition enumeration; cores with more chains use the LPT fallback
// (CoreResult.Exact reports which one ran).
const ExactMaxChains = 9

// ItemKind classifies one segment of a wrapper scan chain.
type ItemKind int

// Wrapper chain segments, in shift order: input boundary cells first,
// then whole internal HSCAN chains, then output boundary cells.
const (
	ItemInputCells ItemKind = iota
	ItemScanChain
	ItemOutputCells
)

func (k ItemKind) String() string {
	switch k {
	case ItemInputCells:
		return "in"
	case ItemScanChain:
		return "scan"
	case ItemOutputCells:
		return "out"
	}
	return fmt.Sprintf("ItemKind(%d)", int(k))
}

// Item is one segment of a wrapper chain: Bits boundary cells, or one
// whole internal HSCAN chain (Chain indexes the core's Scan.Chains; Bits
// is its register-stage count).
type Item struct {
	Kind  ItemKind
	Bits  int
	Chain int // hscan chain index, ItemScanChain only
}

// Chain is one wrapper scan chain of a core.
type Chain struct {
	Items []Item
	SI    int // scan-in length: input cells + register stages
	SO    int // scan-out length: register stages + output cells
}

// CoreResult is the wrapper accounting for one core at its scheduled TAM
// width.
type CoreResult struct {
	Core    string
	Vectors int
	Width   int // wrapper chains built (≤ the TAM lane width)
	SI, SO  int // longest scan-in / scan-out chain
	TAT     int
	Exact   bool // balanced by exact partition enumeration
	Chains  []Chain
	Area    cell.Area // wrapper cells added to the core
}

// Result is the chip-level wrapper/TAM accounting.
type Result struct {
	Width     int   // requested TAM width W
	NumBuses  int   // buses the TAM was split into
	BusWidths []int // wire count per bus (sums to ≤ W)
	Buses     [][]int
	BusTATs   []int
	Cores     []*CoreResult // in TestableCores order
	ChipTAT   int
	TAMArea   cell.Area // chip-level TAM wiring and merge logic
}

// Options tunes Evaluate.
type Options struct {
	// Workers bounds the per-core balancing concurrency; ≤ 0 means 1.
	// Results are bit-identical at any worker count.
	Workers int
}

// WrapCells returns the total wrapper cell count over all cores.
func (r *Result) WrapCells() int {
	n := 0
	for _, c := range r.Cores {
		n += c.Area.Cells()
	}
	return n
}

// DFTCells returns the architecture's total added cell count (wrapper
// cells plus TAM wiring), the column comparable to SOCET's ChipDFTCells
// and bscan's scan+boundary total.
func (r *Result) DFTCells() int { return r.WrapCells() + r.TAMArea.Cells() }

// Format renders the result as an indented text block for the CLIs.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wrapper/TAM width %d: %d buses", r.Width, r.NumBuses)
	for i, w := range r.BusWidths {
		sep := " ["
		if i > 0 {
			sep = " "
		}
		fmt.Fprintf(&b, "%s%dw×%dc", sep, w, len(r.Buses[i]))
	}
	if len(r.BusWidths) > 0 {
		b.WriteString("]")
	}
	fmt.Fprintf(&b, "  TApp %d cycles  DFT %d cells (%d wrapper + %d TAM)\n",
		r.ChipTAT, r.DFTCells(), r.WrapCells(), r.TAMArea.Cells())
	for _, c := range r.Cores {
		balance := "lpt"
		if c.Exact {
			balance = "exact"
		}
		fmt.Fprintf(&b, "  %-12s w=%d si=%d so=%d V=%d TApp=%d (%s)\n",
			c.Core, c.Width, c.SI, c.SO, c.Vectors, c.TAT, balance)
	}
	return b.String()
}

// chainLoads returns the register-stage count of each internal HSCAN
// chain of the core (nil when the core has no scan result).
func chainLoads(c *soc.Core) []int {
	if c.Scan == nil {
		return nil
	}
	loads := make([]int, len(c.Scan.Chains))
	for i := range c.Scan.Chains {
		loads[i] = c.Scan.Chains[i].Depth()
	}
	return loads
}

// coreTAT computes the TAT formula for the given chain-length maxima.
func coreTAT(si, so, vectors int) int {
	if vectors <= 0 {
		return 0
	}
	return (1+maxInt(si, so))*vectors + minInt(si, so)
}

// wrapAllWidths returns one core's wrapper at every width 1..w. It runs
// the balancer once per chain count m = 1..w and carries the best
// candidate forward under the strict better order, so entry m-1 is the
// best over all chain counts ≤ m: the optimal (or LPT, for more than
// ExactMaxChains internal chains) configuration at width m, and never
// worse than the entry before it. A width that improves on nothing
// shares the previous width's CoreResult.
func wrapAllWidths(c *soc.Core, w int) []*CoreResult {
	in, out := c.RTL.InputBits(), c.RTL.OutputBits()
	loads := chainLoads(c)
	exact := len(loads) <= ExactMaxChains

	res := make([]*CoreResult, w)
	var best *candidate
	for m := 1; m <= w; m++ {
		prev := best
		for _, cand := range balance(loads, m, exact) {
			cand.fill(in, out)
			if best == nil || cand.better(best) {
				cc := cand
				best = &cc
			}
		}
		if best == prev {
			res[m-1] = res[m-2]
			continue
		}
		cr := &CoreResult{
			Core:    c.Name,
			Vectors: c.Vectors,
			Exact:   exact,
			Chains:  best.chains(loads),
		}
		for _, wc := range cr.Chains {
			cr.SI = maxInt(cr.SI, wc.SI)
			cr.SO = maxInt(cr.SO, wc.SO)
		}
		cr.Width = len(cr.Chains)
		cr.TAT = coreTAT(cr.SI, cr.SO, c.Vectors)

		// Wrapper hardware: a boundary cell per port bit, a concatenation mux
		// per internal chain (stitching it into its wrapper chain), and a small
		// wrapper controller (instruction register + bypass) per core.
		cr.Area.Add(cell.BScell, in+out)
		cr.Area.Add(cell.Mux2, len(loads))
		cr.Area.Add(cell.DFF, 4)
		cr.Area.Add(cell.And2, 2)
		res[m-1] = cr
	}
	return res
}

// candidate is one balanced grouping under evaluation: the register load
// and member chains per wrapper chain, plus the waterfilled boundary-cell
// allocation.
type candidate struct {
	groups   [][]int // internal chain indices per wrapper chain (may be empty)
	ffs      []int   // register stages per wrapper chain
	inAlloc  []int
	outAlloc []int
	si, so   int
	hi, lo   int // max/min of (si, so), the tie-break pair
}

// fill distributes the boundary cells over the candidate's chains by
// waterfilling and records the resulting chain-length maxima.
func (c *candidate) fill(in, out int) {
	c.inAlloc, c.si = waterfill(c.ffs, in)
	c.outAlloc, c.so = waterfill(c.ffs, out)
	c.hi = maxInt(c.si, c.so)
	c.lo = minInt(c.si, c.so)
}

// better orders candidates: smaller max chain first (the TAT multiplier),
// then smaller min chain (the tail), then fewer chains, then the
// lexicographically smallest descending load multiset — a total,
// deterministic order.
func (c *candidate) better(o *candidate) bool {
	if c.hi != o.hi {
		return c.hi < o.hi
	}
	if c.lo != o.lo {
		return c.lo < o.lo
	}
	if len(c.ffs) != len(o.ffs) {
		return len(c.ffs) < len(o.ffs)
	}
	for i := range c.ffs {
		if c.ffs[i] != o.ffs[i] {
			return c.ffs[i] < o.ffs[i]
		}
	}
	return false
}

// chains materializes the candidate into wrapper Chain records, dropping
// chains that carry nothing.
func (c *candidate) chains(loads []int) []Chain {
	out := make([]Chain, 0, len(c.groups))
	for j, members := range c.groups {
		wc := Chain{SI: c.inAlloc[j] + c.ffs[j], SO: c.ffs[j] + c.outAlloc[j]}
		if c.inAlloc[j] > 0 {
			wc.Items = append(wc.Items, Item{Kind: ItemInputCells, Bits: c.inAlloc[j]})
		}
		sorted := append([]int(nil), members...)
		sort.Ints(sorted)
		for _, idx := range sorted {
			wc.Items = append(wc.Items, Item{Kind: ItemScanChain, Bits: loads[idx], Chain: idx})
		}
		if c.outAlloc[j] > 0 {
			wc.Items = append(wc.Items, Item{Kind: ItemOutputCells, Bits: c.outAlloc[j]})
		}
		if len(wc.Items) > 0 {
			out = append(out, wc)
		}
	}
	if len(out) == 0 {
		out = append(out, Chain{}) // degenerate empty core: one empty chain
	}
	return out
}

// balance enumerates groupings of the internal chains into exactly m
// wrapper-chain slots (empty slots allowed; they host boundary cells
// only). Exact mode yields every distinct partition by load multiset;
// LPT mode yields the single longest-processing-time grouping.
func balance(loads []int, m int, exact bool) []candidate {
	if len(loads) == 0 || !exact {
		return []candidate{lptCandidate(loads, m)}
	}
	// Enumerate set partitions of the chains into ≤ m nonempty groups with
	// the classic symmetry-broken recursion (each item goes into one of the
	// used groups or opens the next), deduplicating by the sorted multiset
	// of group loads. Items are visited in descending-load order so the
	// dedup key stabilizes early.
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })

	var out []candidate
	seen := map[string]bool{}
	groups := make([][]int, 0, m)
	sums := make([]int, 0, m)
	var rec func(i int)
	rec = func(i int) {
		if i == len(order) {
			key := partitionKey(sums)
			if seen[key] {
				return
			}
			seen[key] = true
			out = append(out, snapshot(groups, sums, m))
			return
		}
		idx := order[i]
		tried := map[int]bool{}
		for g := 0; g < len(groups); g++ {
			if tried[sums[g]] {
				continue // placing into an equal-load group is symmetric
			}
			tried[sums[g]] = true
			groups[g] = append(groups[g], idx)
			sums[g] += loads[idx]
			rec(i + 1)
			sums[g] -= loads[idx]
			groups[g] = groups[g][:len(groups[g])-1]
		}
		if len(groups) < m {
			groups = append(groups, []int{idx})
			sums = append(sums, loads[idx])
			rec(i + 1)
			groups = groups[:len(groups)-1]
			sums = sums[:len(sums)-1]
		}
	}
	rec(0)
	return out
}

// snapshot copies the in-progress grouping, padded with empty slots to m.
func snapshot(groups [][]int, sums []int, m int) candidate {
	c := candidate{groups: make([][]int, m), ffs: make([]int, m)}
	// Order groups by descending load (ties by smallest member) so equal
	// partitions snapshot identically regardless of discovery order.
	idx := make([]int, len(groups))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if sums[idx[a]] != sums[idx[b]] {
			return sums[idx[a]] > sums[idx[b]]
		}
		return minMember(groups[idx[a]]) < minMember(groups[idx[b]])
	})
	for j, gi := range idx {
		c.groups[j] = append([]int(nil), groups[gi]...)
		c.ffs[j] = sums[gi]
	}
	return c
}

func minMember(g []int) int {
	m := int(^uint(0) >> 1)
	for _, v := range g {
		if v < m {
			m = v
		}
	}
	return m
}

func partitionKey(sums []int) string {
	s := append([]int(nil), sums...)
	sort.Ints(s)
	var b strings.Builder
	for _, v := range s {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// lptCandidate assigns chains to the m slots by longest processing time:
// descending load, each chain onto the currently lightest slot (ties to
// the lowest slot index).
func lptCandidate(loads []int, m int) candidate {
	c := candidate{groups: make([][]int, m), ffs: make([]int, m)}
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	for _, idx := range order {
		g := 0
		for j := 1; j < m; j++ {
			if c.ffs[j] < c.ffs[g] {
				g = j
			}
		}
		c.groups[g] = append(c.groups[g], idx)
		c.ffs[g] += loads[idx]
	}
	// Normalize slot order like snapshot does.
	return snapshot(c.groups, c.ffs, m)
}

// waterfill distributes bits boundary cells over slots with base register
// loads, minimizing the maximum filled height. It returns the per-slot
// allocation and the resulting maximum.
func waterfill(base []int, bits int) ([]int, int) {
	alloc := make([]int, len(base))
	high := 0
	for _, b := range base {
		high = maxInt(high, b)
	}
	if bits == 0 || len(base) == 0 {
		return alloc, high
	}
	// Binary-search the smallest level whose capacity covers the bits.
	lo, hi := high, high+bits
	capacity := func(level int) int {
		n := 0
		for _, b := range base {
			if level > b {
				n += level - b
			}
		}
		return n
	}
	if capacity(lo) < bits {
		for lo < hi {
			mid := lo + (hi-lo)/2
			if capacity(mid) >= bits {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}
	level := lo
	// Fill every slot to level-1, then hand out the remainder from slot 0.
	rem := bits
	for j, b := range base {
		take := minInt(maxInt(level-1-b, 0), rem)
		alloc[j] = take
		rem -= take
	}
	for j := 0; rem > 0 && j < len(base); j++ {
		if base[j]+alloc[j] < level {
			alloc[j]++
			rem--
		}
	}
	m := 0
	for j, b := range base {
		m = maxInt(m, b+alloc[j])
	}
	return alloc, m
}

// Evaluate computes the wrapper/TAM architecture for the chip at TAM
// width w: every testable core is wrapped and balanced, the TAM is split
// into the best number of equal buses, and cores sharing a bus are
// tested sequentially. Results are bit-identical at any worker count.
func Evaluate(ch *soc.Chip, w int, opts *Options) *Result {
	if w < 1 {
		w = 1
	}
	workers := 1
	if opts != nil && opts.Workers > 0 {
		workers = opts.Workers
	}
	cores := ch.TestableCores()
	res := &Result{Width: w}

	// Per-core TAT at every width 1..w, computed in parallel but stored by
	// index, so the result is independent of scheduling order. Each
	// cannot fail: no call does, and the context is never done.
	table := make([][]*CoreResult, len(cores))
	_ = fanout.Each(context.Background(), len(cores), workers, func(i int) error {
		table[i] = wrapAllWidths(cores[i], w)
		return nil
	})
	obs.C("wrap.cores_wrapped").Add(int64(len(cores)))

	// Static assignment order: descending width-1 TAT, names as tie-break.
	// The key is independent of every balancing decision, so the order is
	// stable under TAM-width changes and chain splits.
	order := make([]int, len(cores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := table[order[a]][0].TAT, table[order[b]][0].TAT
		if ta != tb {
			return ta > tb
		}
		return cores[order[a]].Name < cores[order[b]].Name
	})

	bestTAT := -1
	var bestBuses [][]int
	var bestWidths []int
	var bestBusTATs []int
	for b := 1; b <= w && b <= maxInt(len(cores), 1); b++ {
		widths := make([]int, b)
		for t := 0; t < b; t++ {
			widths[t] = w / b
			if t < w%b {
				widths[t]++
			}
		}
		buses := make([][]int, b)
		for pos, ci := range order {
			t := snakeSlot(pos, b)
			buses[t] = append(buses[t], ci)
		}
		busTATs := make([]int, b)
		chip := 0
		for t := 0; t < b; t++ {
			sum := 0
			for _, ci := range buses[t] {
				sum += table[ci][widths[t]-1].TAT
			}
			busTATs[t] = sum
			chip = maxInt(chip, sum)
		}
		if bestTAT < 0 || chip < bestTAT {
			bestTAT, bestBuses, bestWidths, bestBusTATs = chip, buses, widths, busTATs
		}
	}

	res.NumBuses = len(bestWidths)
	res.BusWidths = bestWidths
	res.Buses = bestBuses
	res.BusTATs = bestBusTATs
	res.ChipTAT = bestTAT
	res.Cores = make([]*CoreResult, len(cores))
	for t, bus := range bestBuses {
		for _, ci := range bus {
			res.Cores[ci] = table[ci][bestWidths[t]-1]
		}
	}
	// TAM wiring: trunk drivers for the W in and W out wires, plus a
	// merge mux per lane between consecutive cores sharing a bus.
	res.TAMArea.Add(cell.Buf, 2*w)
	for t, bus := range bestBuses {
		if n := len(bus); n > 1 {
			res.TAMArea.Add(cell.Mux2, bestWidths[t]*(n-1))
		}
	}
	obs.C("wrap.schedules").Inc()
	return res
}

// snakeSlot maps a position in the sorted core order to its bus under
// boustrophedon assignment: 0..b-1, then b-1..0, and so on — the classic
// balance-by-alternation for a descending sequence.
func snakeSlot(pos, b int) int {
	round, off := pos/b, pos%b
	if round%2 == 0 {
		return off
	}
	return b - 1 - off
}

// SplitScanChain clones the chip with one core's internal HSCAN chain
// split in two after register position at (1 ≤ at < depth). Only the
// scan-chain structure is cloned — RTL, versions and nets are shared —
// so the clone is suitable for wrapper evaluation and the metamorphic
// "splitting never increases chip TAT" check.
func SplitScanChain(ch *soc.Chip, coreName string, chainIdx, at int) (*soc.Chip, error) {
	src, ok := ch.CoreByName(coreName)
	if !ok {
		return nil, fmt.Errorf("wrap: no core %q", coreName)
	}
	if src.Scan == nil || chainIdx < 0 || chainIdx >= len(src.Scan.Chains) {
		return nil, fmt.Errorf("wrap: core %s has no scan chain %d", coreName, chainIdx)
	}
	depth := src.Scan.Chains[chainIdx].Depth()
	if at < 1 || at >= depth {
		return nil, fmt.Errorf("wrap: split point %d outside chain %d of depth %d", at, chainIdx, depth)
	}
	nch := *ch
	nch.Cores = make([]*soc.Core, len(ch.Cores))
	for i, c := range ch.Cores {
		nc := *c
		if c.Name == coreName {
			scan := *c.Scan
			scan.Chains = append([]hchain(nil), c.Scan.Chains...)
			old := scan.Chains[chainIdx]
			first := hchain{Regs: old.Regs[:at]}
			second := hchain{Regs: old.Regs[at:]}
			scan.Chains[chainIdx] = first
			scan.Chains = append(scan.Chains, second)
			scan.MaxDepth = 0
			for _, cc := range scan.Chains {
				scan.MaxDepth = maxInt(scan.MaxDepth, cc.Depth())
			}
			nc.Scan = &scan
		}
		nch.Cores[i] = &nc
	}
	return &nch, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package proptest

import (
	"fmt"
	"sort"

	"repro/internal/ccg"
	"repro/internal/chipsim"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/rtl"
	"repro/internal/soc"
	"repro/internal/trans"
)

// ReplayEvaluation replays every scheduled justification and propagation
// path of e on the cycle-accurate chip simulator, asserting that the test
// value arrives with exactly the analytic latency. Each transit core runs
// the version e.Selection names, the one the evaluation scheduled.
// Transit cores whose transparency path rides created muxes or scan muxes
// get those muxes physically elaborated into their simulation model
// first, so DFT paths replay like any wire. Paths the chip model still
// cannot execute — system-level test muxes, bit-split or frozen
// transparency paths — count as virtual and are skipped; for cores whose
// every path replays without reservation waits, the core TAT is
// recomputed from simulated cycle counts alone and checked against the
// analytic value.
func ReplayEvaluation(ch *soc.Chip, e *core.Evaluation) (*Stats, error) {
	st := &Stats{}
	total := 0
	for _, cs := range e.Sched.Cores {
		total += len(cs.Inputs) + len(cs.Outputs)
	}
	prog := progress.Start("proptest/replay", int64(total), "proptest.paths_replayed")
	defer prog.End()
	cReplayed := obs.C("proptest.paths_replayed")
	for _, cs := range e.Sched.Cores {
		full := true
		simPeriod, simObserve := 0, 0
		run := func(ps portSched, input bool) error {
			st.Paths++
			res, err := replayPath(ch, e.Graph, e.Selection, cs.Core, ps, input)
			prog.Step(1)
			if err != nil {
				return fmt.Errorf("core %s %s path for %s: %w", cs.Core, pathKind(input), ps.Port, err)
			}
			if !res.replayed || res.waits != 0 {
				if !res.replayed {
					st.Virtual++
				} else {
					st.Replayed++
					cReplayed.Inc()
				}
				full = false
				return nil
			}
			st.Replayed++
			cReplayed.Inc()
			if input && res.cycles > simPeriod {
				simPeriod = res.cycles
			}
			if !input && res.cycles > simObserve {
				simObserve = res.cycles
			}
			return nil
		}
		for _, ps := range cs.Inputs {
			if err := run(portSched{ps.Port, ps.Path, ps.Arrival, ps.AddedMux}, true); err != nil {
				return st, err
			}
		}
		for _, ps := range cs.Outputs {
			if err := run(portSched{ps.Port, ps.Path, ps.Arrival, ps.AddedMux}, false); err != nil {
				return st, err
			}
		}
		if full {
			// Every path simulated with zero reservation waits: the TAT
			// formula can be rebuilt from simulated cycle counts alone.
			if simPeriod < 1 {
				simPeriod = 1
			}
			tailScan := cs.Tail - cs.ObserveLat
			simTAT := cs.HSCANVectors*simPeriod + simObserve + tailScan
			if simTAT != cs.TAT {
				return st, fmt.Errorf("core %s: simulated TAT %d (J=%d O=%d tail=%d V=%d) != analytic TAT %d",
					cs.Core, simTAT, simPeriod, simObserve, tailScan, cs.HSCANVectors, cs.TAT)
			}
			st.FullCores++
		}
	}
	return st, nil
}

func pathKind(input bool) string {
	if input {
		return "justification"
	}
	return "propagation"
}

// portSched decouples the replay engine from sched.PortSchedule so both
// input and output schedules share one code path.
type portSched struct {
	Port     string
	Path     *ccg.PathResult
	Arrival  int
	AddedMux bool
}

type replayResult struct {
	replayed bool
	cycles   int // simulated transit cycles (sum of edge latencies)
	waits    int // analytic reservation delay on top of the transit
}

// transHop is one engaged transparency crossing: the transit core, its
// selected version, the solved path the CCG edge was derived from, and
// that path's RCG edges in data-flow order.
type transHop struct {
	core  string
	ver   *trans.Version
	pu    *trans.PathUse
	chain []*trans.Edge
}

// window tracks where the driven test vector currently sits: bits
// [lo..hi] of the present node hold bits [lo-delta..hi-delta] of the
// original vector. Each slice-copying edge narrows and shifts it.
type window struct {
	lo, hi, delta int
}

func (w window) width() int { return w.hi - w.lo + 1 }

// apply narrows the window through a slice copy [sl..sh] -> [dl..dh];
// ok=false means no vector bit survives (a bit-split the replay cannot
// follow with one probe).
func (w window) apply(sl, sh, dl, dh int) (window, bool) {
	a, b := max(w.lo, sl), min(w.hi, sh)
	if a > b {
		return w, false
	}
	d := dl - sl
	return window{lo: a + d, hi: b + d, delta: w.delta + d}, a+d >= 0
}

// replayPath simulates one scheduled path. The value is driven at the
// path's source (the chip PI for justification; a register behind the
// core output for propagation), the transit cores' transparency paths are
// engaged exactly as the controller would — with created and scan muxes
// physically elaborated into the transit cores' models — the simulator is
// stepped for the analytic number of transit cycles, and the probe node
// must then hold the value. A nil error with replayed=false means the
// path is not expressible on the chip model (virtual); an error means the
// analytic claim disagreed with the simulation.
func replayPath(ch *soc.Chip, g *ccg.Graph, sel map[string]int, coreName string, ps portSched, input bool) (replayResult, error) {
	var res replayResult
	steps := ps.Path.Steps
	if len(steps) == 0 {
		return res, fmt.Errorf("empty path")
	}
	sumLat := 0
	for _, s := range steps {
		sumLat += s.Edge.Latency
	}
	res.cycles = sumLat
	res.waits = ps.Arrival - sumLat
	if res.waits < 0 {
		return res, fmt.Errorf("arrival %d below path latency %d", ps.Arrival, sumLat)
	}

	// Eligibility scan: resolve every transparency crossing to its solved
	// path and an ordered linear chain of RCG edges.
	var hops []transHop
	hopAt := map[int]int{} // step index -> hops index
	seenCore := map[string]bool{}
	for i, s := range steps {
		from, to := g.Nodes[s.Edge.From], g.Nodes[s.Edge.To]
		switch s.Edge.Kind {
		case ccg.TestMux:
			return res, nil // fixture hardware the chip model does not contain
		case ccg.Trans:
			if i == len(steps)-1 {
				return res, nil // nothing downstream to probe at
			}
			c, ok := ch.CoreByName(from.Core)
			if !ok {
				return res, fmt.Errorf("transparency edge through unknown core %s", from.Core)
			}
			v := c.VersionAt(sel[c.Name])
			if v == nil {
				return res, fmt.Errorf("core %s has no version %d", c.Name, sel[c.Name])
			}
			pu := matchPathUse(v, from.Port, to.Port, s.Edge)
			if pu == nil {
				return res, fmt.Errorf("no transparency path of %s matches CCG edge %s->%s (lat %d)",
					c.Name, from.Name(), to.Name(), s.Edge.Latency)
			}
			if seenCore[c.Name] {
				return res, nil // second crossing could need conflicting forcings
			}
			seenCore[c.Name] = true
			if len(pu.Ends) != 1 || len(pu.Freezes) != 0 {
				return res, nil // split or frozen paths need multi-point driving
			}
			chain, ok := chainOrder(v, pu, from.Port, to.Port)
			if !ok {
				return res, nil
			}
			hopAt[i] = len(hops)
			hops = append(hops, transHop{core: c.Name, ver: v, pu: pu, chain: chain})
		}
	}

	// Source drive plan and initial vector window.
	src := g.Nodes[steps[0].Edge.From]
	var driveReg string
	var win window
	if input {
		if src.Kind != ccg.ChipPI {
			return res, fmt.Errorf("justification path starts at %s, not a chip PI", src.Name())
		}
		win = window{lo: 0, hi: nodeWidth(ch, src) - 1}
	} else {
		if src.Kind != ccg.CoreOut || src.Core != coreName {
			return res, fmt.Errorf("propagation path starts at %s, not an output of %s", src.Name(), coreName)
		}
		c, _ := ch.CoreByName(coreName)
		reg, w, ok := regDriver(c.RTL, src.Port)
		if !ok {
			return res, nil // output not directly register-driven: cannot plant a value
		}
		driveReg = reg
		win = window{lo: 0, hi: w - 1}
	}

	// Compose the vector window across every step but the last (the probe
	// sits at the final edge's source node).
	for i, s := range steps[:len(steps)-1] {
		var ok bool
		switch s.Edge.Kind {
		case ccg.Wire:
			w := min(nodeWidth(ch, g.Nodes[s.Edge.From]), nodeWidth(ch, g.Nodes[s.Edge.To]))
			win, ok = win.apply(0, w-1, 0, w-1)
		case ccg.Trans:
			ok = true
			for _, e := range hops[hopAt[i]].chain {
				win, ok = win.apply(e.SrcLo, e.SrcHi, e.DstLo, e.DstHi)
				if !ok {
					break
				}
			}
		}
		if !ok {
			return res, nil
		}
	}
	if win.width() < 2 || win.lo < win.delta {
		return res, nil // single-bit probe would alias too easily
	}
	vec := uint64(0xA5A5A5A5A5A5A5A5)
	want := (vec >> uint(win.lo-win.delta)) & mask(win.width())
	if want == 0 {
		// An all-zero expectation cannot be told from a stale register;
		// flip the pattern so the window carries signal.
		vec = ^vec
		want = mask(win.width())
	}

	sim, muxNames, err := simFor(ch, hops)
	if err != nil {
		return res, fmt.Errorf("chipsim: %w", err)
	}
	for _, h := range hops {
		cs, ok := sim.Core(h.core)
		if !ok {
			return res, fmt.Errorf("no simulator for core %s", h.core)
		}
		if err := chipsim.EngageElaboratedPath(cs, h.ver, h.pu, muxNames[h.core]); err != nil {
			return res, fmt.Errorf("engage %s: %w", h.core, err)
		}
	}
	if input {
		if err := sim.SetPI(src.Port, vec); err != nil {
			return res, err
		}
	} else {
		cs, _ := sim.Core(coreName)
		if err := cs.SetReg(driveReg, vec); err != nil {
			return res, err
		}
		if err := cs.Freeze(driveReg, true); err != nil {
			return res, err
		}
	}
	for i := 0; i < sumLat; i++ {
		if err := sim.Step(); err != nil {
			return res, fmt.Errorf("step %d: %w", i, err)
		}
	}
	probed, err := probe(sim, g, steps)
	if err != nil {
		return res, err
	}
	if got := (probed >> uint(win.lo)) & mask(win.width()); got != want {
		return res, fmt.Errorf("after %d simulated cycles (analytic arrival %d, waits %d) probe bits [%d:%d] hold %#x, want %#x",
			sumLat, ps.Arrival, res.waits, win.hi, win.lo, got, want)
	}
	res.replayed = true
	return res, nil
}

// simFor builds the chip simulator for one path, with every transit
// core's created and scan muxes elaborated into real hardware. The
// returned map gives each transit core's RCG-edge-id -> mux-name table.
func simFor(ch *soc.Chip, hops []transHop) (*chipsim.Sim, map[string]map[int]string, error) {
	if len(hops) == 0 {
		sim, err := chipsim.New(ch)
		return sim, nil, err
	}
	byCore := map[string]transHop{}
	for _, h := range hops {
		byCore[h.core] = h
	}
	nch := ch.Clone()
	muxNames := map[string]map[int]string{}
	for _, c := range nch.Cores {
		if h, ok := byCore[c.Name]; ok {
			ert, names, err := h.ver.RCG.Elaborate()
			if err != nil {
				return nil, nil, err
			}
			c.RTL = ert
			muxNames[c.Name] = names
		}
	}
	sim, err := chipsim.New(nch)
	return sim, muxNames, err
}

// chainOrder orders a solved path's RCG edges by walking the data flow
// from the input port to the output port. Only single linear chains
// qualify: a fork, gap or stray edge disqualifies the path from replay.
func chainOrder(v *trans.Version, pu *trans.PathUse, in, out string) ([]*trans.Edge, bool) {
	start, ok1 := v.RCG.NodeIndex(in)
	end, ok2 := v.RCG.NodeIndex(out)
	if !ok1 || !ok2 {
		return nil, false
	}
	used := map[int]bool{}
	chain := make([]*trans.Edge, 0, len(pu.Edges))
	cur := start
	for cur != end {
		next := -1
		for id := range pu.Edges {
			if !used[id] && v.RCG.Edges[id].From == cur {
				if next >= 0 {
					return nil, false // fork
				}
				next = id
			}
		}
		if next < 0 || len(chain) == len(pu.Edges) {
			return nil, false
		}
		used[next] = true
		chain = append(chain, v.RCG.Edges[next])
		cur = v.RCG.Edges[next].To
	}
	if len(chain) != len(pu.Edges) {
		return nil, false // stray edges off the chain
	}
	return chain, true
}

// probe reads the value at the source node of the path's final edge: the
// last transit core's output port (or the PI itself for wire-only paths).
// Probing the upstream port side-steps sink pins with multiple drivers,
// whose read-back is OR-merged and not attributable to one path.
func probe(sim *chipsim.Sim, g *ccg.Graph, steps []ccg.Step) (uint64, error) {
	from := g.Nodes[steps[len(steps)-1].Edge.From]
	switch from.Kind {
	case ccg.ChipPI:
		// Wire-only path from the driven PI: the value is there by
		// construction; read it back through a core input when one exists.
		to := g.Nodes[steps[len(steps)-1].Edge.To]
		if to.Kind == ccg.CoreIn {
			return sim.CoreInput(to.Core, to.Port)
		}
		return sim.ChipOutput(to.Port)
	case ccg.CoreOut:
		cs, ok := sim.Core(from.Core)
		if !ok {
			return 0, fmt.Errorf("no simulator for probe core %s", from.Core)
		}
		return cs.Output(from.Port)
	}
	return 0, fmt.Errorf("cannot probe node %s", from.Name())
}

// matchPathUse resolves the solved transparency path a CCG Trans edge was
// derived from: the justification path of the edge's output whose ends
// include the input, else the propagation path of the input reaching the
// output — the same derivation order ccg.BuildSelection dedupes in.
func matchPathUse(v *trans.Version, in, out string, e *ccg.Edge) *trans.PathUse {
	if p, ok := v.Just[out]; ok && endsContain(v, p, in) && resMatch(p, e) {
		return p
	}
	if p, ok := v.Prop[in]; ok && endsContain(v, p, out) && resMatch(p, e) {
		return p
	}
	return nil
}

func endsContain(v *trans.Version, p *trans.PathUse, name string) bool {
	for end := range p.Ends {
		if v.RCG.Nodes[end].Name == name {
			return true
		}
	}
	return false
}

// resMatch checks that the path's RCG edge set is exactly the CCG edge's
// reservation list and the clamped latencies agree.
func resMatch(p *trans.PathUse, e *ccg.Edge) bool {
	lat := p.Latency
	if lat < 1 {
		lat = 1
	}
	if lat != e.Latency || len(p.Edges) != len(e.Res) {
		return false
	}
	ids := make([]int, 0, len(p.Edges))
	for id := range p.Edges {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if e.Res[i].Edge != id {
			return false
		}
	}
	return true
}

// regDriver finds the register that directly and exclusively drives an
// output port low-bits-aligned, so planting a value is a SetReg+Freeze.
func regDriver(c *rtl.Core, port string) (reg string, width int, ok bool) {
	var found *rtl.Conn
	n := 0
	for i := range c.Conns {
		cn := &c.Conns[i]
		if cn.To.Comp == port && cn.To.Pin == "" {
			n++
			found = cn
		}
	}
	if n != 1 {
		return "", 0, false
	}
	if _, isReg := c.RegByName(found.From.Comp); !isReg {
		return "", 0, false
	}
	if found.From.Lo != 0 || found.To.Lo != 0 {
		return "", 0, false
	}
	w := found.From.Width()
	if tw := found.To.Width(); tw < w {
		w = tw
	}
	return found.From.Comp, w, true
}

func nodeWidth(ch *soc.Chip, n ccg.Node) int {
	if n.Core == "" {
		for _, p := range ch.PIs {
			if p.Name == n.Port {
				return p.Width
			}
		}
		for _, p := range ch.POs {
			if p.Name == n.Port {
				return p.Width
			}
		}
		return 0
	}
	c, ok := ch.CoreByName(n.Core)
	if !ok {
		return 0
	}
	if p, ok := c.RTL.PortByName(n.Port); ok {
		return p.Width
	}
	return 0
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

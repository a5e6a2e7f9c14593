// Package sched builds the chip-level test schedule of Sections 3 and 5.1:
// for each embedded core it finds reservation-aware justification paths
// from chip inputs to every core input and propagation paths from every
// core output to chip outputs, inserting system-level test multiplexers
// where no path exists, and computes the test application time
//
//	TAT(core) = HSCANvectors × max(J, 1) + tail
//
// where J is the per-vector justification period (the DISPLAY's 525×9+3 in
// Section 3) and tail flushes the final response. The global TAT is the
// sum over cores, with memory BIST running concurrently.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/ccg"
	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/soc"
)

// PortSchedule is the path serving one core port.
type PortSchedule struct {
	Port     string
	Path     *ccg.PathResult
	Arrival  int
	AddedMux bool // a system-level test mux had to be inserted
}

// Mux is one system-level test multiplexer the scheduler inserted while
// planning a core: the CCG edge endpoints, the served port and its
// width. Recording insertions per core is what lets the incremental
// delta evaluator replay an unaffected core's muxes into a spliced graph
// — and prove that a recomputed core made exactly the decisions the base
// schedule made.
type Mux struct {
	From, To int // CCG node indices
	Port     string
	Input    bool
	Width    int
}

// CoreSchedule is the test schedule of one core.
type CoreSchedule struct {
	Core         string
	Inputs       []PortSchedule
	Outputs      []PortSchedule
	Muxes        []Mux // system-level test muxes inserted for this core
	Period       int   // J: cycles to deliver one vector to all inputs
	ObserveLat   int   // worst output-to-PO propagation latency
	Tail         int
	HSCANVectors int
	TAT          int
}

// Result is the chip-wide schedule.
type Result struct {
	Cores    []*CoreSchedule
	MuxArea  cell.Area // system-level test multiplexers added
	TotalTAT int       // sum over cores (sequential testing)
}

// CoreTAT returns the named core's TAT, or -1.
func (r *Result) CoreTAT(core string) int {
	for _, cs := range r.Cores {
		if cs.Core == core {
			return cs.TAT
		}
	}
	return -1
}

// Schedule computes the chip test schedule on a freshly built CCG. The
// graph is mutated: system-level test-mux edges are added where needed
// (the PREPROCESSOR's Address output in Figure 9 gets exactly such a mux).
// The first unschedulable core aborts the build; BuildPartial is the
// degrading variant that skips and diagnoses instead.
func Schedule(ch *soc.Chip, g *ccg.Graph) (*Result, error) {
	root := obs.Start(nil, "sched")
	defer root.End()
	res := &Result{}
	fi := ccg.GetFinder()
	defer ccg.PutFinder(fi)
	for _, c := range ch.TestableCores() {
		if c.Disabled != "" {
			return nil, fmt.Errorf("sched: core %s disabled: %s", c.Name, c.Disabled)
		}
		sp := obs.Start(root, "sched/"+c.Name)
		cs, err := scheduleCore(ch, g, fi, c, res, nil)
		sp.End()
		if err != nil {
			return nil, err
		}
		res.Cores = append(res.Cores, cs)
		res.TotalTAT += cs.TAT
		obs.C("sched.cores_scheduled").Inc()
	}
	return res, nil
}

// ScheduleCore plans one core's test on g exactly as a full Schedule run
// would at this core's turn, accumulating inserted-mux area into res. It
// is the per-core entry point of the incremental delta evaluator: after
// replaying the unaffected prefix of a base schedule (muxes included),
// re-scheduling only the invalidated cores through here reproduces the
// full run bit-for-bit. fi may be nil; a shared Finder avoids per-call
// buffer allocation.
func ScheduleCore(ch *soc.Chip, g *ccg.Graph, fi *ccg.Finder, c *soc.Core, res *Result) (*CoreSchedule, error) {
	if fi == nil {
		fi = ccg.NewFinder()
	}
	return scheduleCore(ch, g, fi, c, res, nil)
}

// scheduleCore plans one core's test. allowMux gates the system-level
// test-mux fallback per port (nil allows every insertion, the design-time
// behaviour); a denied or futile insertion surfaces as *UnreachableError.
func scheduleCore(ch *soc.Chip, g *ccg.Graph, fi *ccg.Finder, c *soc.Core, res *Result, allowMux func(core, port string, input bool) bool) (*CoreSchedule, error) {
	cs := &CoreSchedule{Core: c.Name}
	resv := ccg.Reservations{}
	pis := g.PINodes()
	pos := g.PONodes()

	// Justify every core input from the chip PIs, reserving edges so
	// shared transparency logic serializes across inputs (Section 5.1).
	inPorts := inputPortNames(c)
	for _, port := range inPorts {
		target, ok := g.NodeIndex(c.Name + "." + port)
		if !ok {
			return nil, fmt.Errorf("sched: missing CCG node %s.%s", c.Name, port)
		}
		p := fi.ShortestPath(g, pis, target, resv)
		added := false
		if p == nil {
			// No existing path: connect the input to a PI with a
			// system-level test multiplexer and retry.
			if allowMux != nil && !allowMux(c.Name, port, true) {
				return nil, &UnreachableError{Core: c.Name, Port: port, Input: true, MuxDenied: true}
			}
			width := portWidth(c, port)
			pi, err := PickPin(g, ch.PIs, width)
			if err != nil {
				return nil, fmt.Errorf("sched: test mux for %s.%s: %w", c.Name, port, err)
			}
			g.AddTestMux(pi, target)
			res.MuxArea.Add(cell.Mux2, width)
			cs.Muxes = append(cs.Muxes, Mux{From: pi, To: target, Port: port, Input: true, Width: width})
			obs.C("sched.test_muxes_added").Inc()
			added = true
			p = fi.ShortestPath(g, pis, target, resv)
			if p == nil {
				return nil, &UnreachableError{Core: c.Name, Port: port, Input: true}
			}
		}
		g.ReservePath(p, resv)
		cs.Inputs = append(cs.Inputs, PortSchedule{Port: port, Path: p, Arrival: p.Arrival, AddedMux: added})
		if p.Arrival > cs.Period {
			cs.Period = p.Arrival
		}
	}
	if cs.Period < 1 {
		cs.Period = 1
	}

	// Propagate every core output to a chip PO. Responses stream while the
	// next vector is justified, so observation uses fresh reservations.
	oresv := ccg.Reservations{}
	for _, port := range outputPortNames(c) {
		source, ok := g.NodeIndex(c.Name + "." + port)
		if !ok {
			return nil, fmt.Errorf("sched: missing CCG node %s.%s", c.Name, port)
		}
		p := bestPathToPO(fi, g, source, pos, oresv)
		added := false
		if p == nil {
			if allowMux != nil && !allowMux(c.Name, port, false) {
				return nil, &UnreachableError{Core: c.Name, Port: port, MuxDenied: true}
			}
			width := portWidth(c, port)
			po, err := PickPin(g, ch.POs, width)
			if err != nil {
				return nil, fmt.Errorf("sched: test mux for %s.%s: %w", c.Name, port, err)
			}
			g.AddTestMux(source, po)
			res.MuxArea.Add(cell.Mux2, width)
			cs.Muxes = append(cs.Muxes, Mux{From: source, To: po, Port: port, Input: false, Width: width})
			obs.C("sched.test_muxes_added").Inc()
			added = true
			p = bestPathToPO(fi, g, source, pos, oresv)
			if p == nil {
				return nil, &UnreachableError{Core: c.Name, Port: port}
			}
		}
		g.ReservePath(p, oresv)
		cs.Outputs = append(cs.Outputs, PortSchedule{Port: port, Path: p, Arrival: p.Arrival, AddedMux: added})
		if p.Arrival > cs.ObserveLat {
			cs.ObserveLat = p.Arrival
		}
	}

	depth := 0
	if c.Scan != nil {
		depth = c.Scan.MaxDepth
		cs.HSCANVectors = c.Scan.VectorsFor(c.Vectors)
	} else {
		cs.HSCANVectors = c.Vectors
	}
	tailScan := depth - 1
	if tailScan < 0 {
		tailScan = 0
	}
	cs.Tail = cs.ObserveLat + tailScan
	cs.TAT = cs.HSCANVectors*cs.Period + cs.Tail
	return cs, nil
}

// bestPathToPO finds the earliest-arriving PO with ONE multi-target
// Dijkstra instead of one full search per primary output; ties break by
// PO list order, matching the strict-< scan the per-PO loop used.
func bestPathToPO(fi *ccg.Finder, g *ccg.Graph, source int, pos []int, resv ccg.Reservations) *ccg.PathResult {
	var best *ccg.PathResult
	for _, p := range fi.ShortestPathMulti(g, []int{source}, pos, resv) {
		if p != nil && (best == nil || p.Arrival < best.Arrival) {
			best = p
		}
	}
	return best
}

// PickPin selects the chip pin a created test mux attaches to: the
// narrowest pin at least width bits wide (so the full port is covered
// with the least wiring), falling back to the widest pin available; ties
// break by name for determinism. An empty pin list or a pin missing from
// the CCG is a loud error — the scheduler must never guess a node. This
// is the same policy forced muxes use (core.Flow), fixing the old
// bestPI/bestPO helpers that ignored port width and silently fell back
// to node 0 on pinless chips.
func PickPin(g *ccg.Graph, pins []soc.Pin, width int) (int, error) {
	if len(pins) == 0 {
		return 0, fmt.Errorf("chip has no pins to attach a test mux to")
	}
	best := -1
	better := func(i int) bool {
		if best < 0 {
			return true
		}
		bw, iw := pins[best].Width, pins[i].Width
		bOK, iOK := bw >= width, iw >= width
		if bOK != iOK {
			return iOK // prefer pins wide enough for the port
		}
		if bw != iw {
			if bOK {
				return iw < bw // both cover: narrowest wins
			}
			return iw > bw // neither covers: widest wins
		}
		return pins[i].Name < pins[best].Name
	}
	for i := range pins {
		if better(i) {
			best = i
		}
	}
	idx, ok := g.NodeIndex(pins[best].Name)
	if !ok {
		return 0, fmt.Errorf("chip pin %s missing from the CCG", pins[best].Name)
	}
	return idx, nil
}

func inputPortNames(c *soc.Core) []string {
	var out []string
	for _, p := range c.RTL.Inputs() {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

func outputPortNames(c *soc.Core) []string {
	var out []string
	for _, p := range c.RTL.Outputs() {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

func portWidth(c *soc.Core, port string) int {
	if p, ok := c.RTL.PortByName(port); ok {
		return p.Width
	}
	return 1
}

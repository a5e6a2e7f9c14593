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

// Result is the chip-wide schedule. The chip's totals are derived from
// the core schedules, which hold the only copy of each core's TAT and
// inserted muxes.
type Result struct {
	Cores []*CoreSchedule
}

// MuxArea is the area of the system-level test multiplexers the schedule
// inserted.
func (r *Result) MuxArea() cell.Area {
	var a cell.Area
	for _, cs := range r.Cores {
		for _, m := range cs.Muxes {
			a.Add(cell.Mux2, m.Width)
		}
	}
	return a
}

// TotalTAT is the sum of the core TATs (sequential testing).
func (r *Result) TotalTAT() int {
	n := 0
	for _, cs := range r.Cores {
		n += cs.TAT
	}
	return n
}

// Schedule computes the chip test schedule on a freshly built CCG. The
// graph is mutated: system-level test-mux edges are added where needed
// (the PREPROCESSOR's Address output in Figure 9 gets exactly such a mux).
// It runs BuildPartial's loop and fails with the first unschedulable
// core's error.
func Schedule(ch *soc.Chip, g *ccg.Graph) (*Result, error) {
	res, deg := BuildPartial(ch, g, false, nil)
	if deg.Degraded() {
		return nil, deg.Failures[0].Err
	}
	return res, nil
}

// scheduleCore plans one core's test. fixed denies the system-level
// test-mux fallback (the chip's test muxes are fixed hardware); a denied
// or futile insertion surfaces as *UnreachableError.
func scheduleCore(ch *soc.Chip, g *ccg.Graph, fi *ccg.Finder, c *soc.Core, fixed bool) (*CoreSchedule, error) {
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
			if fixed {
				return nil, &UnreachableError{Core: c.Name, Port: port, Input: true, MuxDenied: true}
			}
			width := portWidth(c, port)
			pi, err := PickPin(g, ch.PIs, width)
			if err != nil {
				return nil, fmt.Errorf("sched: test mux for %s.%s: %w", c.Name, port, err)
			}
			g.AddTestMux(pi, target)
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

	// Propagate every core output to the chip PO it reaches first (ties:
	// the first in PO order). Responses stream while the next vector is
	// justified, so observation uses fresh reservations.
	oresv := ccg.Reservations{}
	for _, port := range outputPortNames(c) {
		source, ok := g.NodeIndex(c.Name + "." + port)
		if !ok {
			return nil, fmt.Errorf("sched: missing CCG node %s.%s", c.Name, port)
		}
		src := []int{source}
		p := fi.NearestPath(g, src, pos, oresv)
		added := false
		if p == nil {
			if fixed {
				return nil, &UnreachableError{Core: c.Name, Port: port, MuxDenied: true}
			}
			width := portWidth(c, port)
			po, err := PickPin(g, ch.POs, width)
			if err != nil {
				return nil, fmt.Errorf("sched: test mux for %s.%s: %w", c.Name, port, err)
			}
			g.AddTestMux(source, po)
			cs.Muxes = append(cs.Muxes, Mux{From: source, To: po, Port: port, Input: false, Width: width})
			obs.C("sched.test_muxes_added").Inc()
			added = true
			p = fi.NearestPath(g, src, pos, oresv)
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

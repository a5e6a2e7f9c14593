// Package socgen deterministically generates seed-parameterized SoCs for
// property-based verification of the whole SOCET flow at scale. It
// controls the chip-level structure explicitly: core count, CCG topology
// family (chain, mesh, random DAG, hub), interconnect widths, chip pin
// budgets and optional BIST memory cores. Every decision is driven by a
// splitmix-style generator seeded from Params, so a (seed, shape) pair
// always yields the same chip — the reproducer contract the differential
// harness in internal/proptest relies on.
package socgen

import (
	"fmt"
	"strings"

	"repro/internal/rtl"
	"repro/internal/rtlgen"
	"repro/internal/soc"
)

// Topology selects the chip-level connection family.
type Topology int

// Topology families. Auto (the zero value) picks one from the seed.
const (
	Auto Topology = iota
	// Chain connects each core only to its predecessor: the longest
	// justification/propagation routes, every interior core a transit hop.
	Chain
	// Mesh arranges cores in a near-square grid; each core draws from its
	// left and upper neighbours, so concurrent paths share transit cores
	// and exercise reservation serialization.
	Mesh
	// RandomDAG lets each core draw from any earlier core.
	RandomDAG
	// Hub fans the first core's outputs out to every other core: maximal
	// contention on one transit core's transparency resources.
	Hub
)

var topoNames = map[Topology]string{
	Auto:      "auto",
	Chain:     "chain",
	Mesh:      "mesh",
	RandomDAG: "dag",
	Hub:       "hub",
}

func (t Topology) String() string {
	if n, ok := topoNames[t]; ok {
		return n
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// ParseTopology parses a topology name as printed by String.
func ParseTopology(s string) (Topology, error) {
	for t, n := range topoNames {
		if n == strings.ToLower(strings.TrimSpace(s)) {
			return t, nil
		}
	}
	return Auto, fmt.Errorf("socgen: unknown topology %q (want auto, chain, mesh, dag or hub)", s)
}

// Topologies lists the concrete families (Auto excluded).
func Topologies() []Topology { return []Topology{Chain, Mesh, RandomDAG, Hub} }

// MeshCols returns the grid width used by the Mesh family for n cores:
// the smallest square-ish layout (ceil of the square root).
func MeshCols(n int) int {
	c := 1
	for c*c < n {
		c++
	}
	return c
}

// Params sizes a generated SoC. Zero values pick seed-dependent defaults.
type Params struct {
	Seed     uint64
	Cores    int      // testable cores (default 3..6, seed-dependent)
	Topology Topology // Auto draws one per seed
	Widths   []int    // candidate port widths (default {4, 8})
	PIBudget int      // max chip PIs; 0 = unlimited (inputs reuse pins when exhausted)
	POBudget int      // max chip POs; 0 = unlimited
	Memories int      // BIST memory cores; 0 = seed-dependent 0..1, -1 = none
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

// outSlot is a core output available as a net driver during wiring.
type outSlot struct {
	core  string
	index int // core position, for topology adjacency checks
	port  rtl.Port
	uses  int
}

// maxFanout bounds how many sinks one core output may drive; beyond it
// the generator falls back to a fresh (or reused) chip pin.
const maxFanout = 2

// Generate builds the chip for the given parameters. The result passes
// soc.Chip.Validate and is ready for the full flow. An error means every
// retry of some drawn core failed rtl validation — callers sampling many
// seeds skip such seeds (see Many).
func Generate(p Params) (*soc.Chip, error) {
	r := &rng{s: p.Seed*0xd1342543de82ef95 + 0x632be59bd9b4e019}
	if p.Cores == 0 {
		p.Cores = 3 + r.intn(4)
	}
	if p.Cores < 1 {
		return nil, fmt.Errorf("socgen: need at least 1 core, got %d", p.Cores)
	}
	if p.Topology == Auto {
		p.Topology = Topologies()[r.intn(len(Topologies()))]
	}
	if len(p.Widths) == 0 {
		p.Widths = []int{4, 8}
	}
	if p.Memories == 0 {
		p.Memories = r.intn(2)
	} else if p.Memories < 0 {
		p.Memories = 0
	}

	ch := &soc.Chip{Name: fmt.Sprintf("socgen-%s-c%d-s%d", p.Topology, p.Cores, p.Seed)}

	var pis []soc.Pin
	newPI := func(w int) string {
		// Within budget: fresh pin. Budget exhausted: reuse the best
		// existing pin — same width if available, else the widest (a wide
		// pin covers a narrow input's low bits).
		if p.PIBudget <= 0 || len(pis) < p.PIBudget {
			name := fmt.Sprintf("PI%d", len(pis))
			pin := soc.Pin{Name: name, Width: w}
			pis = append(pis, pin)
			ch.PIs = append(ch.PIs, pin)
			return name
		}
		best := 0
		for i, pin := range pis {
			if pin.Width == w {
				return pin.Name
			}
			if pin.Width > pis[best].Width {
				best = i
			}
		}
		return pis[best].Name
	}
	poCount := 0
	newPO := func(w int) string {
		name := fmt.Sprintf("PO%d", poCount)
		poCount++
		ch.POs = append(ch.POs, soc.Pin{Name: name, Width: w})
		return name
	}

	cols := MeshCols(p.Cores)
	// allowed returns the producer core positions topology lets core i
	// draw inputs from.
	allowed := func(i int) []int {
		switch p.Topology {
		case Chain:
			if i == 0 {
				return nil
			}
			return []int{i - 1}
		case Mesh:
			var out []int
			if i%cols != 0 {
				out = append(out, i-1) // left neighbour
			}
			if i-cols >= 0 {
				out = append(out, i-cols) // upper neighbour
			}
			return out
		case Hub:
			if i == 0 {
				return nil
			}
			return []int{0}
		default: // RandomDAG
			out := make([]int, i)
			for j := range out {
				out[j] = j
			}
			return out
		}
	}

	var slots []*outSlot
	for i := 0; i < p.Cores; i++ {
		c, err := buildCore(p, i)
		if err != nil {
			return nil, err
		}
		ch.Cores = append(ch.Cores, &soc.Core{Name: c.Name, RTL: c})
		prods := allowed(i)
		for _, in := range c.Inputs() {
			src := pickSource(r, slots, prods, in.Width, p.Topology)
			if src != nil {
				src.uses++
				ch.Nets = append(ch.Nets, soc.Net{
					FromCore: src.core, FromPort: src.port.Name,
					ToCore: c.Name, ToPort: in.Name,
				})
			} else {
				ch.Nets = append(ch.Nets, soc.Net{
					FromPort: newPI(in.Width),
					ToCore:   c.Name, ToPort: in.Name,
				})
			}
		}
		for _, out := range c.Outputs() {
			slots = append(slots, &outSlot{core: c.Name, index: i, port: out})
		}
	}

	// Terminal outputs: the last core's spare outputs always reach POs (the
	// chip must be observable at its sinks); earlier spares become POs with
	// probability 1/2 while the budget lasts, else stay unobservable so the
	// scheduler's system-level test-mux fallback keeps getting exercised.
	for _, sl := range slots {
		if sl.uses > 0 {
			continue
		}
		if sl.index != p.Cores-1 && r.intn(2) == 1 {
			continue
		}
		if p.POBudget > 0 && poCount >= p.POBudget && sl.index != p.Cores-1 {
			continue
		}
		if p.POBudget > 0 && poCount >= p.POBudget {
			break
		}
		ch.Nets = append(ch.Nets, soc.Net{
			FromCore: sl.core, FromPort: sl.port.Name,
			ToPort: newPO(sl.port.Width),
		})
	}
	if len(ch.POs) == 0 {
		// Degenerate corner (tiny PO budget or unlucky draws): observe the
		// last core's first output regardless.
		c := ch.Cores[p.Cores-1]
		out := c.RTL.Outputs()[0]
		ch.Nets = append(ch.Nets, soc.Net{FromCore: c.Name, FromPort: out.Name, ToPort: newPO(out.Width)})
	}

	addMemories(r, ch, p, newPI)

	if err := ch.Validate(); err != nil {
		return nil, fmt.Errorf("socgen: seed %d: generated chip invalid: %w", p.Seed, err)
	}
	return ch, nil
}

// buildCore draws one RTL core, retrying over derived sub-seeds when a
// drawn structure fails to build (rtlgen documents such seeds as skippable;
// socgen retries instead so chip shape never depends on build luck).
func buildCore(p Params, i int) (*rtl.Core, error) {
	var firstErr error
	for try := 0; try < 8; try++ {
		sub := p.Seed*1000003 + uint64(i)*8191 + uint64(try)*31337
		c, err := rtlgen.Random(rtlgen.Params{Seed: sub, Widths: p.Widths})
		if err == nil {
			c.Name = fmt.Sprintf("C%02d", i)
			return c, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("socgen: seed %d core %d: no buildable draw: %w", p.Seed, i, firstErr)
}

// pickSource finds a width-matching, fanout-free output slot among the
// allowed producer cores, scanning from an rng-chosen offset so different
// seeds pick different-but-deterministic wirings. Chain, mesh and hub
// wire aggressively (the shape is the point); the DAG family keeps some
// inputs on chip pins for front-side controllability.
func pickSource(r *rng, slots []*outSlot, prods []int, width int, topo Topology) *outSlot {
	if len(prods) == 0 || len(slots) == 0 {
		return nil
	}
	wireChance := 4 // of 5
	if topo == RandomDAG {
		wireChance = 3
	}
	if r.intn(5) >= wireChance {
		return nil
	}
	ok := make(map[int]bool, len(prods))
	for _, p := range prods {
		ok[p] = true
	}
	off := r.intn(len(slots))
	var fallback *outSlot
	for k := 0; k < len(slots); k++ {
		sl := slots[(off+k)%len(slots)]
		if !ok[sl.index] || sl.port.Width != width || sl.uses >= maxFanout {
			continue
		}
		if sl.uses == 0 {
			return sl
		}
		if fallback == nil {
			fallback = sl
		}
	}
	return fallback
}

// addMemories appends BIST memory stub cores. Their address/data inputs
// hang off existing core outputs (fanout-exempt: the CCG drops memory
// nets, so sharing a driver costs no transparency resources) or chip
// pins; the data output stays internal, as memories are tested by BIST,
// not through chip pins.
func addMemories(r *rng, ch *soc.Chip, p Params, newPI func(int) string) {
	w := p.Widths[len(p.Widths)-1]
	for m := 0; m < p.Memories; m++ {
		name := fmt.Sprintf("MEM%d", m)
		b := rtl.NewCore(name)
		b.In("Addr", w).In("Din", w).Out("Dout", w)
		b.Reg("Cell", w)
		b.Wire("Din", "Cell.d")
		b.Wire("Cell.q", "Dout")
		c, err := b.Build()
		if err != nil { // cannot happen for this fixed structure
			continue
		}
		ch.Cores = append(ch.Cores, &soc.Core{Name: name, RTL: c, Memory: true})
		for _, port := range []string{"Addr", "Din"} {
			if src := anyOutput(r, ch, p.Cores); src != nil {
				ch.Nets = append(ch.Nets, soc.Net{
					FromCore: src.core, FromPort: src.port.Name,
					ToCore: name, ToPort: port,
				})
			} else {
				ch.Nets = append(ch.Nets, soc.Net{FromPort: newPI(w), ToCore: name, ToPort: port})
			}
		}
	}
}

// anyOutput picks a random logic-core output as a memory-side driver.
func anyOutput(r *rng, ch *soc.Chip, cores int) *outSlot {
	ci := r.intn(cores)
	c := ch.Cores[ci]
	outs := c.RTL.Outputs()
	if len(outs) == 0 {
		return nil
	}
	return &outSlot{core: c.Name, index: ci, port: outs[r.intn(len(outs))]}
}

// Many generates chips for seeds base..base+n-1, skipping seeds whose
// cores fail to build.
func Many(n int, base uint64, shape Params) []*soc.Chip {
	var out []*soc.Chip
	for i := 0; i < n; i++ {
		p := shape
		p.Seed = base + uint64(i)
		if ch, err := Generate(p); err == nil {
			out = append(out, ch)
		}
	}
	return out
}

// Package soc models a core-based system-on-chip: embedded cores, chip
// pins, and the interconnect between them (the paper's Figure 2 barcode
// system is the running example). It carries per-core DFT state filled in
// by the SOCET flow: HSCAN insertion results, the transparency version
// ladder, the selected version, and the core's precomputed test set size.
package soc

import (
	"fmt"

	"repro/internal/hscan"
	"repro/internal/rtl"
	"repro/internal/trans"
)

// Core is one embedded core plus its DFT state.
type Core struct {
	Name   string
	RTL    *rtl.Core
	Memory bool // memory cores use BIST and stay out of the CCG (Section 5)

	// Filled by the SOCET flow.
	Scan     *hscan.Result
	Versions []*trans.Version
	Selected int // index into Versions of the version in use
	Vectors  int // combinational ATPG vector count for the core's test set

	// Disabled, when non-empty, marks the core's test resources as dead
	// (e.g. a broken HSCAN chain injected by the fault harness) with a
	// human-readable reason. A disabled core cannot be scheduled as a test
	// target; the full scheduler refuses the chip, the partial scheduler
	// diagnoses and skips it. Neighbour transparency is unaffected.
	Disabled string
}

// VersionAt returns the transparency version at the given index, or nil
// when out of range. It does not read Selected, so selection-pure
// evaluation can look versions up concurrently while the chip's own
// selection stays untouched.
func (c *Core) VersionAt(idx int) *trans.Version {
	if idx < 0 || idx >= len(c.Versions) {
		return nil
	}
	return c.Versions[idx]
}

// Pin is a chip-level primary input or output.
type Pin struct {
	Name  string
	Width int
}

// Net connects a driver to a sink at the chip level. An empty FromCore
// means the driver is the chip pin FromPort; an empty ToCore means the
// sink is the chip pin ToPort.
type Net struct {
	FromCore, FromPort string
	ToCore, ToPort     string
}

func (n Net) String() string {
	f := n.FromPort
	if n.FromCore != "" {
		f = n.FromCore + "." + n.FromPort
	}
	t := n.ToPort
	if n.ToCore != "" {
		t = n.ToCore + "." + n.ToPort
	}
	return f + " -> " + t
}

// Chip is the system-on-chip.
type Chip struct {
	Name  string
	Cores []*Core
	PIs   []Pin
	POs   []Pin
	Nets  []Net
}

// Clone copies the chip's mutable surface: its pin and net lists, each
// core struct and each core's version-slice header, so a fault, an
// elaboration or a truncated ladder can change the copy alone. RTL,
// scan results and version objects are shared; a change to one of those
// must copy it first.
func (ch *Chip) Clone() *Chip {
	nc := &Chip{
		Name: ch.Name,
		PIs:  append([]Pin(nil), ch.PIs...),
		POs:  append([]Pin(nil), ch.POs...),
		Nets: append([]Net(nil), ch.Nets...),
	}
	for _, c := range ch.Cores {
		cc := *c
		cc.Versions = append([]*trans.Version(nil), c.Versions...)
		nc.Cores = append(nc.Cores, &cc)
	}
	return nc
}

// Resolve returns the design point sel names on this chip: one version
// index per testable core. A core sel leaves out keeps its Selected
// index, and every index is clamped into the core's ladder, so a core
// with an empty ladder (an opaque one) resolves to -1. Names of memory
// or unknown cores are dropped. sel, which may be nil, is only read; the
// result is a new map. This is the one rule every evaluation of a
// selection applies.
func (ch *Chip) Resolve(sel map[string]int) map[string]int {
	out := make(map[string]int, len(ch.Cores))
	for _, c := range ch.Cores {
		if c.Memory {
			continue
		}
		idx, ok := sel[c.Name]
		if !ok {
			idx = c.Selected
		}
		out[c.Name] = min(max(idx, 0), len(c.Versions)-1)
	}
	return out
}

// CoreByName returns the named core.
func (ch *Chip) CoreByName(name string) (*Core, bool) {
	for _, c := range ch.Cores {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// TestableCores returns the non-memory cores in declaration order.
func (ch *Chip) TestableCores() []*Core {
	out := make([]*Core, 0, len(ch.Cores))
	for _, c := range ch.Cores {
		if !c.Memory {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks that nets reference existing pins and ports with
// matching directions.
func (ch *Chip) Validate() error {
	pi := map[string]Pin{}
	for _, p := range ch.PIs {
		pi[p.Name] = p
	}
	po := map[string]Pin{}
	for _, p := range ch.POs {
		po[p.Name] = p
	}
	for _, n := range ch.Nets {
		if n.FromCore == "" {
			if _, ok := pi[n.FromPort]; !ok {
				return fmt.Errorf("soc: chip %s: net %s: unknown PI %q", ch.Name, n, n.FromPort)
			}
		} else {
			c, ok := ch.CoreByName(n.FromCore)
			if !ok {
				return fmt.Errorf("soc: chip %s: net %s: unknown core %q", ch.Name, n, n.FromCore)
			}
			p, ok := c.RTL.PortByName(n.FromPort)
			if !ok || p.Dir != rtl.Out {
				return fmt.Errorf("soc: chip %s: net %s: %s.%s is not an output port", ch.Name, n, n.FromCore, n.FromPort)
			}
		}
		if n.ToCore == "" {
			if _, ok := po[n.ToPort]; !ok {
				return fmt.Errorf("soc: chip %s: net %s: unknown PO %q", ch.Name, n, n.ToPort)
			}
		} else {
			c, ok := ch.CoreByName(n.ToCore)
			if !ok {
				return fmt.Errorf("soc: chip %s: net %s: unknown core %q", ch.Name, n, n.ToCore)
			}
			p, ok := c.RTL.PortByName(n.ToPort)
			if !ok || p.Dir != rtl.In {
				return fmt.Errorf("soc: chip %s: net %s: %s.%s is not an input port", ch.Name, n, n.ToCore, n.ToPort)
			}
		}
	}
	return nil
}

// DriversOf returns the nets sinking at the given core input port.
func (ch *Chip) DriversOf(core, port string) []Net {
	var out []Net
	for _, n := range ch.Nets {
		if n.ToCore == core && n.ToPort == port {
			out = append(out, n)
		}
	}
	return out
}

// SinksOf returns the nets driven by the given core output port.
func (ch *Chip) SinksOf(core, port string) []Net {
	var out []Net
	for _, n := range ch.Nets {
		if n.FromCore == core && n.FromPort == port {
			out = append(out, n)
		}
	}
	return out
}

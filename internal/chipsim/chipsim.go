// Package chipsim simulates a whole SoC at the RTL level: one rtlsim
// instance per core, stitched by the chip nets every cycle, with the
// test-mode controls (forced multiplexer selects, forced loads, frozen
// cores) the SOCET controller drives. Its purpose is end-to-end proof of
// the paper's mechanism: a test value driven at a chip input really
// arrives at an embedded core's input after the scheduled number of
// cycles, having traveled through the surrounding cores' transparency
// paths (the Section 3 scenario, executed rather than calculated).
package chipsim

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/rtlsim"
	"repro/internal/soc"
	"repro/internal/trans"
)

// Sim simulates a chip cycle by cycle.
type Sim struct {
	ch   *soc.Chip
	sims map[string]*rtlsim.Sim
	pis  map[string]uint64
}

// New builds a simulator over all non-memory cores. Nets to or from
// memory cores are left dangling (their inputs read zero), matching the
// CCG's view of the chip.
func New(ch *soc.Chip) (*Sim, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{ch: ch, sims: map[string]*rtlsim.Sim{}, pis: map[string]uint64{}}
	for _, c := range ch.TestableCores() {
		cs, err := rtlsim.New(c.RTL)
		if err != nil {
			return nil, fmt.Errorf("chipsim: core %s: %w", c.Name, err)
		}
		s.sims[c.Name] = cs
	}
	return s, nil
}

// Core exposes one core's simulator for test-mode control.
func (s *Sim) Core(name string) (*rtlsim.Sim, bool) {
	cs, ok := s.sims[name]
	return cs, ok
}

// SetPI drives a chip primary input.
func (s *Sim) SetPI(name string, v uint64) error {
	for _, p := range s.ch.PIs {
		if p.Name == name {
			s.pis[name] = v
			return nil
		}
	}
	return fmt.Errorf("chipsim: no PI %q", name)
}

// propagate copies values across the chip nets: PI values and core output
// values into core inputs. Multiple passes settle combinational
// feedthrough chains across cores.
func (s *Sim) propagate() error {
	for pass := 0; pass < 3; pass++ {
		for _, n := range s.ch.Nets {
			var v uint64
			if n.FromCore == "" {
				v = s.pis[n.FromPort]
			} else {
				src, ok := s.sims[n.FromCore]
				if !ok {
					continue // memory core: leave the sink at zero
				}
				out, err := src.Output(n.FromPort)
				if err != nil {
					return err
				}
				v = out
			}
			if n.ToCore == "" {
				continue // PO: read via ChipOutput
			}
			dst, ok := s.sims[n.ToCore]
			if !ok {
				continue
			}
			if err := dst.SetInput(n.ToPort, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Step propagates the nets and clocks every core once.
func (s *Sim) Step() error {
	obs.C("chipsim.cycles").Inc()
	if err := s.propagate(); err != nil {
		return err
	}
	for _, c := range s.ch.TestableCores() {
		s.sims[c.Name].Step()
	}
	return nil
}

// CoreInput returns the value currently presented at a core input port
// (after net propagation).
func (s *Sim) CoreInput(core, port string) (uint64, error) {
	if err := s.propagate(); err != nil {
		return 0, err
	}
	for _, n := range s.ch.Nets {
		if n.ToCore != core || n.ToPort != port {
			continue
		}
		if n.FromCore == "" {
			return s.pis[n.FromPort], nil
		}
		src, ok := s.sims[n.FromCore]
		if !ok {
			return 0, nil
		}
		return src.Output(n.FromPort)
	}
	return 0, fmt.Errorf("chipsim: %s.%s has no driver", core, port)
}

// ChipOutput reads a chip PO.
func (s *Sim) ChipOutput(name string) (uint64, error) {
	if err := s.propagate(); err != nil {
		return 0, err
	}
	for _, n := range s.ch.Nets {
		if n.ToCore != "" || n.ToPort != name {
			continue
		}
		if n.FromCore == "" {
			return s.pis[n.FromPort], nil
		}
		src, ok := s.sims[n.FromCore]
		if !ok {
			return 0, nil
		}
		return src.Output(n.FromPort)
	}
	return 0, fmt.Errorf("chipsim: no net drives PO %q", name)
}

// EngagePath configures a core for one solved transparency path
// (justification or propagation): every multiplexer hop along the path is
// forced and every register the path loads has its load asserted. Created
// transparency-mux and scan-mux edges cannot be engaged (they are hardware
// the surrogate RTL does not contain). Edges are visited in id order so
// conflicting forcings resolve deterministically.
func EngagePath(cs *rtlsim.Sim, v *trans.Version, p *trans.PathUse) error {
	return EngageElaboratedPath(cs, v, p, nil)
}

// EngageElaboratedPath is EngagePath for a core whose DFT hardware has
// been physically elaborated: dftMux maps the RCG edge id of each created
// transparency or scan mux to the name of the inserted multiplexer, which
// is forced to its test input (in1) instead of being rejected.
func EngageElaboratedPath(cs *rtlsim.Sim, v *trans.Version, p *trans.PathUse, dftMux map[int]string) error {
	ids := make([]int, 0, len(p.Edges))
	for id := range p.Edges {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := v.RCG.Edges[id]
		if e.Created || e.ScanMux {
			name, ok := dftMux[id]
			if !ok {
				return fmt.Errorf("chipsim: path uses non-RTL edge %d", id)
			}
			if err := cs.ForceMux(name, 1); err != nil {
				return err
			}
		} else {
			for _, h := range e.Hops {
				if err := cs.ForceMux(h.Mux, h.Sel); err != nil {
					return err
				}
			}
		}
		to := v.RCG.Nodes[e.To]
		if to.Kind == trans.NodeReg && to.HasLoad {
			if err := cs.ForceLoad(to.Name, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// EngageJustification configures a core for the justification path of one
// of its outputs in the given version and returns the path latency.
func EngageJustification(cs *rtlsim.Sim, v *trans.Version, output string) (int, error) {
	p, ok := v.Just[output]
	if !ok {
		return 0, fmt.Errorf("chipsim: version has no justification for %s", output)
	}
	if err := EngagePath(cs, v, p); err != nil {
		return 0, fmt.Errorf("chipsim: justification of %s: %w", output, err)
	}
	return p.Latency, nil
}

package wrap

import (
	"fmt"

	"repro/internal/rtl"
	"repro/internal/soc"
)

// ChainProbe names the observation points of one physically elaborated
// wrapper chain: the chip pin driving its serial input, chip pins tapping
// the boundary between every segment, and the shift muxes that must be
// forced to test mode. The *Bits fields are the structural segment sizes
// recorded in the chain's Items — the claims the simulation measures
// against.
type ChainProbe struct {
	Core  string
	Chain int

	PI      string // chip PI driving the chain's WSI
	TapIn   string // chip PO after the input boundary cells
	TapScan string // chip PO after the internal scan stages (scan-in end)
	WSO     string // chip PO at the end of the chain

	Muxes []string // per-stage shift muxes, forced to in1 for shifting

	InBits, ScanBits, OutBits int
}

// Stages returns the chain's total sequential length.
func (p *ChainProbe) Stages() int { return p.InBits + p.ScanBits + p.OutBits }

// Elaborate clones the chip with every wrapper chain of r physically
// present: each chain stage becomes a real 1-bit register behind a 2-to-1
// shift mux (in1 = the serial path; in0 is the functional side, left to
// the core), the chain's serial input is wired to a new chip PI and the
// segment boundaries to new chip POs. The elaborated chip simulates on
// chipsim like any other; shifting a constant 1 from the PI and recording
// the first cycle each tap reads 1 measures the chain's true segment
// lengths, which internal/proptest checks against the recorded Items and
// the claimed SI/SO/TAT.
func Elaborate(ch *soc.Chip, r *Result) (*soc.Chip, []ChainProbe, error) {
	byName := map[string]*CoreResult{}
	for _, cr := range r.Cores {
		byName[cr.Core] = cr
	}
	nch := ch.Clone()
	var probes []ChainProbe
	for _, c := range nch.Cores {
		cr := byName[c.Name]
		if cr != nil && !c.Memory {
			ert, ps, err := elaborateWrappedCore(c.RTL, cr)
			if err != nil {
				return nil, nil, err
			}
			c.RTL = ert
			for j := range ps {
				// Lift the core-port probes to chip pins.
				pi := fmt.Sprintf("XTAMI_%s_%d", c.Name, j)
				nch.PIs = append(nch.PIs, soc.Pin{Name: pi, Width: 1})
				nch.Nets = append(nch.Nets, soc.Net{FromPort: pi, ToCore: c.Name, ToPort: ps[j].PI})
				for _, t := range []struct {
					chip string
					core *string
				}{
					{fmt.Sprintf("XTAMA_%s_%d", c.Name, j), &ps[j].TapIn},
					{fmt.Sprintf("XTAMS_%s_%d", c.Name, j), &ps[j].TapScan},
					{fmt.Sprintf("XTAMO_%s_%d", c.Name, j), &ps[j].WSO},
				} {
					nch.POs = append(nch.POs, soc.Pin{Name: t.chip, Width: 1})
					nch.Nets = append(nch.Nets, soc.Net{FromCore: c.Name, FromPort: *t.core, ToPort: t.chip})
					*t.core = t.chip
				}
				ps[j].PI = pi
				probes = append(probes, ps[j])
			}
		}
	}
	if err := nch.Validate(); err != nil {
		return nil, nil, fmt.Errorf("wrap: elaborated chip: %w", err)
	}
	return nch, probes, nil
}

// elaborateWrappedCore splices the wrapper chains into a clone of the
// core RTL. The returned probes reference core-local port names; the
// caller lifts them to chip pins.
func elaborateWrappedCore(c *rtl.Core, cr *CoreResult) (*rtl.Core, []ChainProbe, error) {
	nc := c.Clone()
	probes := make([]ChainProbe, 0, len(cr.Chains))
	for j, wc := range cr.Chains {
		p := ChainProbe{Core: c.Name, Chain: j}
		for _, it := range wc.Items {
			switch it.Kind {
			case ItemInputCells:
				p.InBits += it.Bits
			case ItemScanChain:
				p.ScanBits += it.Bits
			case ItemOutputCells:
				p.OutBits += it.Bits
			}
		}
		wsi := fmt.Sprintf("XWSI%d", j)
		nc.Ports = append(nc.Ports, rtl.Port{Name: wsi, Dir: rtl.In, Width: 1})
		p.PI = wsi
		prev := rtl.Endpoint{Comp: wsi}
		stageSrc := []rtl.Endpoint{prev} // source after s stages, index s
		for e := 0; e < p.Stages(); e++ {
			mux := fmt.Sprintf("XWM%d_%d", j, e)
			reg := fmt.Sprintf("XW%d_%d", j, e)
			nc.Muxes = append(nc.Muxes, rtl.Mux{Name: mux, Width: 1, NumIn: 2})
			nc.Regs = append(nc.Regs, rtl.Register{Name: reg, Width: 1})
			q := rtl.Endpoint{Comp: reg, Pin: "q"}
			nc.Conns = append(nc.Conns,
				rtl.Conn{From: prev, To: rtl.Endpoint{Comp: mux, Pin: "in1"}},
				rtl.Conn{From: rtl.Endpoint{Comp: mux, Pin: "out"}, To: rtl.Endpoint{Comp: reg, Pin: "d"}})
			p.Muxes = append(p.Muxes, mux)
			prev = q
			stageSrc = append(stageSrc, q)
		}
		for _, t := range []struct {
			name string
			pos  int
			dst  *string
		}{
			{fmt.Sprintf("XWTA%d", j), p.InBits, &p.TapIn},
			{fmt.Sprintf("XWTS%d", j), p.InBits + p.ScanBits, &p.TapScan},
			{fmt.Sprintf("XWSO%d", j), p.Stages(), &p.WSO},
		} {
			nc.Ports = append(nc.Ports, rtl.Port{Name: t.name, Dir: rtl.Out, Width: 1})
			nc.Conns = append(nc.Conns, rtl.Conn{From: stageSrc[t.pos], To: rtl.Endpoint{Comp: t.name}})
			*t.dst = t.name
		}
		probes = append(probes, p)
	}
	if err := nc.Validate(); err != nil {
		return nil, nil, fmt.Errorf("wrap: elaborate %s: %w", c.Name, err)
	}
	return nc, probes, nil
}

// Package resil is a deterministic fault-injection harness for the SOCET
// flow: it perturbs a copy of a chip model — broken interconnect, opaque
// cores, slow transparency, dead HSCAN chains — and evaluates the damaged
// chip through the degraded flow. Campaigns enumerate or sample fault
// sets reproducibly (seeded), so robustness regressions can run in CI.
package resil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/soc"
	"repro/internal/trans"
)

// Fault is one deterministic perturbation of a chip model. Apply mutates
// the given chip (always a private clone, see Inject) and errors when the
// fault does not apply — an unknown net or core is a campaign bug, not a
// degradation.
type Fault interface {
	Apply(ch *soc.Chip) error
	String() string
}

// CutEdge removes one interconnect net: the wire between a driver and a
// sink broke. Empty FromCore/ToCore mean chip pins, mirroring soc.Net.
type CutEdge struct {
	FromCore, FromPort string
	ToCore, ToPort     string
}

// Cut builds the CutEdge fault severing the given net.
func Cut(n soc.Net) CutEdge {
	return CutEdge{FromCore: n.FromCore, FromPort: n.FromPort, ToCore: n.ToCore, ToPort: n.ToPort}
}

func (f CutEdge) net() soc.Net {
	return soc.Net{FromCore: f.FromCore, FromPort: f.FromPort, ToCore: f.ToCore, ToPort: f.ToPort}
}

func (f CutEdge) String() string { return "cut(" + f.net().String() + ")" }

func (f CutEdge) Apply(ch *soc.Chip) error {
	want := f.net()
	for i, n := range ch.Nets {
		if n == want {
			ch.Nets = append(ch.Nets[:i:i], ch.Nets[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("resil: %s: no such net on chip %s", f, ch.Name)
}

// Opaque strips a core's transparency version ladder: the core still gets
// tested (its HSCAN survives) but it no longer moves neighbour test data,
// as if its transparency control logic were dead.
type Opaque struct {
	Core string
}

func (f Opaque) String() string { return "opaque(" + f.Core + ")" }

func (f Opaque) Apply(ch *soc.Chip) error {
	c, ok := ch.CoreByName(f.Core)
	if !ok {
		return fmt.Errorf("resil: %s: no such core on chip %s", f, ch.Name)
	}
	c.Versions = nil
	return nil
}

// SlowTransparency multiplies every transparency-path latency of a core by
// Factor (minimum 2): a marginal transparency path needing extra settle
// cycles. The chip stays fully testable but TAT inflates wherever the
// core's transparency is on a justification or propagation route.
type SlowTransparency struct {
	Core   string
	Factor int
}

func (f SlowTransparency) factor() int {
	if f.Factor < 2 {
		return 2
	}
	return f.Factor
}

func (f SlowTransparency) String() string {
	return fmt.Sprintf("slow(%s x%d)", f.Core, f.factor())
}

func (f SlowTransparency) Apply(ch *soc.Chip) error {
	c, ok := ch.CoreByName(f.Core)
	if !ok {
		return fmt.Errorf("resil: %s: no such core on chip %s", f, ch.Name)
	}
	k := f.factor()
	scaled := make([]*trans.Version, len(c.Versions))
	for i, v := range c.Versions {
		nv := *v
		nv.Prop = scalePaths(v.Prop, k)
		nv.Just = scalePaths(v.Just, k)
		scaled[i] = &nv
	}
	c.Versions = scaled
	return nil
}

// scalePaths clones a path map with latencies multiplied; edge/freeze sets
// are shared (read-only downstream).
func scalePaths(m map[string]*trans.PathUse, k int) map[string]*trans.PathUse {
	out := make(map[string]*trans.PathUse, len(m))
	for name, p := range m {
		np := *p
		np.Latency = p.Latency * k
		out[name] = &np
	}
	return out
}

// DisableHSCAN marks a core's scan infrastructure dead: the core cannot be
// scheduled as a test target at all. Neighbour transparency still works
// (the transparency mode of Figure 3 does not ride the scan chain).
type DisableHSCAN struct {
	Core string
}

func (f DisableHSCAN) String() string { return "noscan(" + f.Core + ")" }

func (f DisableHSCAN) Apply(ch *soc.Chip) error {
	c, ok := ch.CoreByName(f.Core)
	if !ok {
		return fmt.Errorf("resil: %s: no such core on chip %s", f, ch.Name)
	}
	c.Disabled = "HSCAN chain broken (injected " + f.String() + ")"
	return nil
}

// Inject clones the chip and applies the faults in order. The base chip is
// never modified.
func Inject(base *soc.Chip, faults ...Fault) (*soc.Chip, error) {
	ch := base.Clone()
	for _, f := range faults {
		if err := f.Apply(ch); err != nil {
			return nil, err
		}
		obs.C("resil.faults_injected").Inc()
	}
	return ch, nil
}

// FaultSetString renders a fault set for reports.
func FaultSetString(fs []Fault) string {
	if len(fs) == 0 {
		return "(none)"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, "+")
}

// ParseFaults parses a comma-separated fault spec against a chip:
//
//	cut:FROM->TO     sever a net (endpoints "CORE.PORT" or a chip pin name)
//	opaque:CORE      strip the core's transparency versions
//	slow:CORE[:K]    multiply the core's transparency latencies by K (>=2)
//	noscan:CORE      break the core's HSCAN chain
//
// Core and net names are validated against ch, cumulatively: an accepted
// spec is guaranteed to Inject without error (a second cut of the same
// net, say, is rejected here rather than at injection time).
func ParseFaults(ch *soc.Chip, spec string) ([]Fault, error) {
	var out []Fault
	probe := ch.Clone()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, ":", 3)
		var f Fault
		switch fields[0] {
		case "cut":
			if len(fields) < 2 {
				return nil, fmt.Errorf("resil: fault %q: want cut:FROM->TO", part)
			}
			from, to, ok := strings.Cut(fields[1], "->")
			if !ok {
				return nil, fmt.Errorf("resil: fault %q: want cut:FROM->TO", part)
			}
			fc, fp := parseEndpoint(from)
			tc, tp := parseEndpoint(to)
			f = CutEdge{FromCore: fc, FromPort: fp, ToCore: tc, ToPort: tp}
		case "opaque":
			if len(fields) != 2 {
				return nil, fmt.Errorf("resil: fault %q: want opaque:CORE", part)
			}
			f = Opaque{Core: fields[1]}
		case "slow":
			if len(fields) < 2 {
				return nil, fmt.Errorf("resil: fault %q: want slow:CORE[:K]", part)
			}
			k := 2
			if len(fields) == 3 {
				v, err := strconv.Atoi(fields[2])
				if err != nil || v < 2 {
					return nil, fmt.Errorf("resil: fault %q: factor must be an integer >= 2", part)
				}
				k = v
			}
			f = SlowTransparency{Core: fields[1], Factor: k}
		case "noscan":
			if len(fields) != 2 {
				return nil, fmt.Errorf("resil: fault %q: want noscan:CORE", part)
			}
			f = DisableHSCAN{Core: fields[1]}
		default:
			return nil, fmt.Errorf("resil: fault %q: unknown kind %q (want cut, opaque, slow or noscan)", part, fields[0])
		}
		// Validate on the probe clone, never mutating the real chip; the
		// clone accumulates so overlapping faults are caught at parse time.
		if err := f.Apply(probe); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseEndpoint(s string) (core, port string) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return "", s
}

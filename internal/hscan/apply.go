package hscan

import (
	"fmt"

	"repro/internal/rtl"
)

// Applied is the result of materializing an HSCAN insertion into RTL.
type Applied struct {
	Core *rtl.Core
	// ScanEn is the added scan-enable control input steering every
	// inserted test multiplexer.
	ScanEn string
	// MuxFor maps a created scan path (by its index in Result.Edges) to
	// the inserted multiplexer's name.
	MuxFor map[int]string
}

// Apply rewrites the core with the scan hardware the insertion decided
// on: every created scan path (test-mux link, scan-in tap, partial-cover
// filler) becomes a real 2-to-1 multiplexer in front of the destination
// bits, steered by a new ScanEn control input. Reused mux/direct paths
// need no structural change (their activation is select forcing, which
// the test controller — or rtlsim.ForceMux — provides).
//
// The applied core is what the core provider would actually ship; on it,
// every scan path is physical, so transparency paths that ride the scan
// muxes can be simulated and verified end to end.
func Apply(c *rtl.Core, res *Result) (*Applied, error) {
	// Deep-copy the core structure.
	nc := &rtl.Core{
		Name:  c.Name,
		Ports: append([]rtl.Port(nil), c.Ports...),
		Regs:  append([]rtl.Register(nil), c.Regs...),
		Muxes: append([]rtl.Mux(nil), c.Muxes...),
		Units: append([]rtl.Unit(nil), c.Units...),
		Conns: append([]rtl.Conn(nil), c.Conns...),
	}
	const scanEn = "ScanEn"
	if _, exists := c.PortByName(scanEn); exists {
		return nil, fmt.Errorf("hscan: core %s already has a %s port", c.Name, scanEn)
	}
	nc.Ports = append(nc.Ports, rtl.Port{Name: scanEn, Dir: rtl.In, Width: 1, Control: true})
	ap := &Applied{Core: nc, ScanEn: scanEn, MuxFor: map[int]string{}}

	muxN := 0
	for ei, e := range res.Edges {
		if !e.Created {
			continue
		}
		if e.ToPort {
			// Output-tap muxes would replace the PO driver; the surrogate
			// systems always have register-driven outputs, so an added
			// output tap only arises when a chain tail has no existing
			// path — mux the output pin.
			if err := insertMux(nc, &muxN, ap, ei, e, rtl.Endpoint{Comp: e.To, Lo: e.Dst.Lo, Hi: e.Dst.Hi}, e.Src); err != nil {
				return nil, err
			}
			continue
		}
		dst := rtl.Endpoint{Comp: e.To, Pin: "d", Lo: e.Dst.Lo, Hi: e.Dst.Hi}
		if err := insertMux(nc, &muxN, ap, ei, e, dst, e.Src); err != nil {
			return nil, err
		}
	}
	if err := nc.Validate(); err != nil {
		return nil, fmt.Errorf("hscan: applied core invalid: %w", err)
	}
	return ap, nil
}

// insertMux splices a scan mux in front of dst: original drivers feed
// in0, the scan source feeds in1, ScanEn selects.
func insertMux(nc *rtl.Core, muxN *int, ap *Applied, edgeIdx int, e Edge, dst, src rtl.Endpoint) error {
	w := dst.Width()
	name := fmt.Sprintf("tmscan%d", *muxN)
	*muxN++
	nc.Muxes = append(nc.Muxes, rtl.Mux{Name: name, Width: w, NumIn: 2})
	// Rewire original drivers of dst bits onto in0, splitting any driver
	// that straddles the scan slice.
	var rewired []rtl.Conn
	for i := 0; i < len(nc.Conns); i++ {
		cn := nc.Conns[i]
		if cn.To.Comp != dst.Comp || cn.To.Pin != dst.Pin || cn.To.Hi < dst.Lo || cn.To.Lo > dst.Hi {
			rewired = append(rewired, cn)
			continue
		}
		// Part below the slice keeps its original sink.
		if cn.To.Lo < dst.Lo {
			n := dst.Lo - cn.To.Lo
			rewired = append(rewired, rtl.Conn{
				From: rtl.Endpoint{Comp: cn.From.Comp, Pin: cn.From.Pin, Lo: cn.From.Lo, Hi: cn.From.Lo + n - 1},
				To:   rtl.Endpoint{Comp: cn.To.Comp, Pin: cn.To.Pin, Lo: cn.To.Lo, Hi: dst.Lo - 1},
			})
		}
		// Overlapping part goes to in0.
		ovLo := max(cn.To.Lo, dst.Lo)
		ovHi := min(cn.To.Hi, dst.Hi)
		rewired = append(rewired, rtl.Conn{
			From: rtl.Endpoint{Comp: cn.From.Comp, Pin: cn.From.Pin, Lo: cn.From.Lo + (ovLo - cn.To.Lo), Hi: cn.From.Lo + (ovHi - cn.To.Lo)},
			To:   rtl.Endpoint{Comp: name, Pin: "in0", Lo: ovLo - dst.Lo, Hi: ovHi - dst.Lo},
		})
		// Part above the slice keeps its original sink.
		if cn.To.Hi > dst.Hi {
			rewired = append(rewired, rtl.Conn{
				From: rtl.Endpoint{Comp: cn.From.Comp, Pin: cn.From.Pin, Lo: cn.From.Lo + (dst.Hi + 1 - cn.To.Lo), Hi: cn.From.Hi},
				To:   rtl.Endpoint{Comp: cn.To.Comp, Pin: cn.To.Pin, Lo: dst.Hi + 1, Hi: cn.To.Hi},
			})
		}
	}
	nc.Conns = rewired
	// Scan source into in1 (missing source bits stay tied low).
	if src.Comp != "" {
		srcPin := src.Pin
		nc.Conns = append(nc.Conns, rtl.Conn{
			From: rtl.Endpoint{Comp: src.Comp, Pin: srcPin, Lo: src.Lo, Hi: src.Hi},
			To:   rtl.Endpoint{Comp: name, Pin: "in1", Lo: 0, Hi: src.Width() - 1},
		})
	}
	nc.Conns = append(nc.Conns,
		rtl.Conn{From: rtl.Endpoint{Comp: ap.ScanEn, Lo: 0, Hi: 0}, To: rtl.Endpoint{Comp: name, Pin: "sel", Lo: 0, Hi: 0}},
		rtl.Conn{From: rtl.Endpoint{Comp: name, Pin: "out", Lo: 0, Hi: w - 1}, To: dst},
	)
	ap.MuxFor[edgeIdx] = name
	return nil
}

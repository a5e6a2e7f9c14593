package rtl

import (
	"fmt"
	"strings"
	"testing"
)

// refValidate is the per-bit-map Validate that the one-pass-per-pin
// Validate replaced, kept as the reference FuzzValidate compares it with:
// one map entry per driven sink bit, and a Lookup per source/sink check.
func refValidate(c *Core) error {
	if err := c.buildIndex(); err != nil {
		return err
	}
	isSink := func(comp, pin string) bool {
		k, i, ok := c.Lookup(comp)
		if !ok {
			return false
		}
		switch k {
		case KindPort:
			return c.Ports[i].Dir == Out
		case KindReg:
			return pin == "d" || pin == "ld"
		case KindMux, KindUnit:
			return pin != "out"
		}
		return false
	}
	isSource := func(comp, pin string) bool {
		k, i, ok := c.Lookup(comp)
		if !ok {
			return false
		}
		switch k {
		case KindPort:
			return c.Ports[i].Dir == In
		case KindReg:
			return pin == "q"
		case KindMux, KindUnit:
			return pin == "out"
		}
		return false
	}
	type bitKey struct {
		comp, pin string
		bit       int
	}
	driven := make(map[bitKey]Conn)
	for _, cn := range c.Conns {
		for _, ep := range []Endpoint{cn.From, cn.To} {
			w, err := c.PinWidth(ep.Comp, ep.Pin)
			if err != nil {
				return fmt.Errorf("rtl: core %s: %s: %v", c.Name, cn, err)
			}
			if ep.Lo < 0 || ep.Hi >= w || ep.Lo > ep.Hi {
				return fmt.Errorf("rtl: core %s: %s: slice %s out of range (pin width %d)", c.Name, cn, ep, w)
			}
		}
		if cn.From.Width() != cn.To.Width() {
			return fmt.Errorf("rtl: core %s: %s: width mismatch %d vs %d", c.Name, cn, cn.From.Width(), cn.To.Width())
		}
		if !isSource(cn.From.Comp, cn.From.Pin) {
			return fmt.Errorf("rtl: core %s: %s: %s is not a source", c.Name, cn, cn.From)
		}
		if !isSink(cn.To.Comp, cn.To.Pin) {
			return fmt.Errorf("rtl: core %s: %s: %s is not a sink", c.Name, cn, cn.To)
		}
		for b := cn.To.Lo; b <= cn.To.Hi; b++ {
			k := bitKey{cn.To.Comp, cn.To.Pin, b}
			if prev, dup := driven[k]; dup {
				return fmt.Errorf("rtl: core %s: %s.%s[%d] driven by both %s and %s", c.Name, cn.To.Comp, cn.To.Pin, b, prev, cn)
			}
			driven[k] = cn
		}
	}
	return nil
}

// unvalidated returns the builder's core as Build would validate it:
// full-width endpoints are resolved where their pin resolves, and left
// for Validate to reject where it does not. It returns nil when the
// builder already holds an error, which Build reports before validating.
func unvalidated(b *Builder) *Core {
	if len(b.errs) > 0 {
		return nil
	}
	c := b.core
	c.Conns = append([]Conn(nil), c.Conns...)
	for i := range c.Conns {
		for _, ep := range []*Endpoint{&c.Conns[i].From, &c.Conns[i].To} {
			if ep.Hi != fullWidth {
				continue
			}
			if w, err := c.PinWidth(ep.Comp, ep.Pin); err == nil {
				ep.Lo, ep.Hi = 0, w-1
			}
		}
	}
	c.index = nil
	return &c
}

// TestValidateMatchesReference runs Validate and refValidate on one core
// per error class, and on a valid core, and requires the same result
// from both: the same error text, or nil from both.
func TestValidateMatchesReference(t *testing.T) {
	cases := []struct {
		name, want string
		b          *Builder
	}{
		{"valid", "", NewCore("ok").In("a", 4).Out("z", 4).Reg("r", 4).
			Wire("a", "r.d").Wire("r.q", "z")},
		{"duplicate name", "duplicate component name", NewCore("dup").In("x", 4).Reg("x", 4)},
		{"empty name", "empty component name", NewCore("empty").In("", 4)},
		{"unknown component", `unknown component "ghost"`, NewCore("unknown").In("a", 4).Out("z", 4).
			Wire("ghost.q", "z")},
		{"slice out of range", "out of range", NewCore("range").In("a", 4).Out("z", 8).Wire("a[7:0]", "z")},
		{"width mismatch", "width mismatch", NewCore("widths").In("a", 8).Reg("r", 4).Wire("a", "r.d")},
		{"not a source", "is not a source", NewCore("source").Out("z", 4).Reg("r", 4).Wire("z", "r.d")},
		{"not a sink", "is not a sink", NewCore("sink").In("a", 4).In("b", 4).Wire("a", "b")},
		{"double drive", "r.d[0] driven by both a[3:0] -> r.d[3:0] and b[3:0] -> r.d[3:0]",
			NewCore("double").In("a", 4).In("b", 4).Reg("r", 4).Wire("a", "r.d").Wire("b", "r.d")},
		{"aliased pin", `mux m: unknown pin "in01"`, NewCore("alias").In("a", 4).In("b", 4).Out("z", 4).
			Mux("m", 4, 2).Wire("a", "m.in1").Wire("b", "m.in01").Wire("a[0]", "m.sel").Wire("m.out", "z")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := unvalidated(tc.b)
			got, want := c.Validate(), refValidate(c)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Validate = %v, reference = %v", got, want)
			}
			if tc.want == "" {
				if got != nil {
					t.Fatalf("valid core rejected: %v", got)
				}
				return
			}
			if got == nil || !strings.Contains(got.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", got, tc.want)
			}
		})
	}
}

// TestNonCanonicalInputPinRejected: a mux or unit data input is spelled
// only "in<k>". Any other spelling that parses to k (a leading zero, a
// sign, trailing text, a space) is an unknown pin; were it accepted,
// M.in1 and M.in01 would be two sinks to Validate but one input to synth,
// rtlsim and AllPaths, which silently drop the second driver.
func TestNonCanonicalInputPinRejected(t *testing.T) {
	for _, pin := range []string{"in01", "in+1", "in1x", "in 1", "in-0", "in00", "in", "In1", "in2"} {
		_, err := NewCore("alias").In("a", 4).In("b", 4).Out("z", 4).
			Mux("m", 4, 2).Wire("a", "m.in1").Wire("b", "m."+pin).Wire("a[0]", "m.sel").Wire("m.out", "z").
			Build()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("mux m: unknown pin %q", pin)) {
			t.Errorf("m.%s: Build = %v, want an unknown-pin error", pin, err)
		}
	}
	c := must(NewCore("wide").In("a", 4).Out("z", 4).Mux("m", 4, 12).
		Unit(Unit{Name: "u", Op: OpAnd, Width: 4}).Build())
	for _, pin := range []string{"in0", "in1", "in10", "in11"} {
		if w, err := c.PinWidth("m", pin); err != nil || w != 4 {
			t.Errorf("m.%s: PinWidth = %d, %v; want 4", pin, w, err)
		}
	}
	for _, pin := range []string{"in12", "in010", "in99999999999999999999"} {
		if _, err := c.PinWidth("m", pin); err == nil {
			t.Errorf("m.%s accepted", pin)
		}
	}
	if _, err := c.PinWidth("u", "in01"); err == nil {
		t.Error("u.in01 accepted")
	}
	for k := 0; k < 70; k++ {
		if got, want := InPin(k), fmt.Sprintf("in%d", k); got != want {
			t.Fatalf("InPin(%d) = %q, want %q", k, got, want)
		}
	}
}

package rtl

import (
	"strings"
	"testing"
)

func TestStringFormats(t *testing.T) {
	ep := Endpoint{Comp: "r", Pin: "q", Lo: 2, Hi: 5}
	if ep.String() != "r.q[5:2]" {
		t.Errorf("endpoint string = %q", ep.String())
	}
	one := Endpoint{Comp: "a", Lo: 3, Hi: 3}
	if one.String() != "a[3]" {
		t.Errorf("single-bit string = %q", one.String())
	}
	cn := Conn{From: one, To: Endpoint{Comp: "r", Pin: "d", Lo: 0, Hi: 0}}
	if cn.String() != "a[3] -> r.d[0]" {
		t.Errorf("conn string = %q", cn.String())
	}
	if In.String() != "in" || Out.String() != "out" {
		t.Error("direction strings")
	}
	if KindPort.String() != "port" || KindReg.String() != "reg" || KindMux.String() != "mux" || KindUnit.String() != "unit" {
		t.Error("kind strings")
	}
	if OpAdd.String() != "add" || OpCloud.String() != "cloud" {
		t.Error("op strings")
	}
	if !strings.HasPrefix(UnitOp(99).String(), "UnitOp(") {
		t.Error("unknown op string")
	}
	if !strings.HasPrefix(CompKind(9).String(), "CompKind(") {
		t.Error("unknown kind string")
	}
	h := Hop{Mux: "m", Sel: 1}
	if h.String() != "m@1" {
		t.Errorf("hop string = %q", h.String())
	}
}

func TestMalformedEndpointReturnsError(t *testing.T) {
	for _, s := range []string{"[oops", "a[3:x]", "a[-1]", "a[2:5]", ".pin", ""} {
		if _, err := ParseEndpoint(s); err == nil {
			t.Errorf("ParseEndpoint(%q) accepted garbage", s)
		}
	}
}

// TestMalformedBuildReturnsError pins the error-returning contract of
// Builder.Build: malformed cores must fail loudly with an error, never
// panic, and never yield a non-nil core.
func TestMalformedBuildReturnsError(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
	}{
		{"duplicate port", NewCore("bad").In("a", 4).In("a", 4)},
		{"bad endpoint syntax", NewCore("bad").In("a", 4).Out("z", 4).Wire("a[oops", "z")},
		{"unknown component", NewCore("bad").In("a", 4).Out("z", 4).Wire("ghost.q", "z")},
		{"slice out of range", NewCore("bad").In("a", 4).Out("z", 8).Wire("a[7:0]", "z")},
		{"tiny mux", NewCore("bad").In("a", 4).Out("z", 4).Mux("m", 4, 1).
			Wire("a", "m.in0").Wire("a", "m.in1").Wire("a", "m.sel").Wire("m.out", "z")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Build panicked: %v", r)
				}
			}()
			c, err := tc.b.Build()
			if err == nil {
				t.Fatal("Build accepted a malformed core")
			}
			if c != nil {
				t.Fatalf("Build returned non-nil core alongside error %v", err)
			}
		})
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{
		Src:  Endpoint{Comp: "a", Lo: 0, Hi: 3},
		Dst:  Endpoint{Comp: "r", Pin: "d", Lo: 0, Hi: 3},
		Hops: []Hop{{"m", 1}},
	}
	if p.Direct() {
		t.Error("path with hops is not direct")
	}
	s := p.String()
	if !strings.Contains(s, "m@1") || !strings.Contains(s, "r.d") {
		t.Errorf("path string = %q", s)
	}
}

func TestAluOpPin(t *testing.T) {
	c := must(NewCore("alu").
		In("a", 4).In("b", 4).In("op", 2).
		Out("z", 4).
		Unit(Unit{Name: "u", Op: OpAlu, Width: 4, AluOps: 4}).
		Wire("a", "u.in0").Wire("b", "u.in1").Wire("op", "u.op").
		Wire("u.out", "z").
		Build())
	w, err := c.PinWidth("u", "op")
	if err != nil || w != 2 {
		t.Errorf("alu op width = %d, %v", w, err)
	}
}

func TestLookupMissing(t *testing.T) {
	c := must(NewCore("l").In("a", 1).Out("z", 1).Reg("r", 1).
		Wire("a", "r.d").Wire("r.q", "z").Build())
	if _, ok := c.PortByName("r"); ok {
		t.Error("register returned as port")
	}
	if _, ok := c.RegByName("a"); ok {
		t.Error("port returned as register")
	}
	if _, ok := c.MuxByName("a"); ok {
		t.Error("port returned as mux")
	}
}

package rtl

import (
	"strings"
	"testing"
)

// figure1Core builds a small core in the spirit of the paper's Figure 1:
// REG1 feeds REG2 through an existing multiplexer, plus a direct
// register-to-register connection and a unit-blocked path.
func figure1Core(t *testing.T) *Core {
	t.Helper()
	c, err := NewCore("fig1").
		In("din", 16).
		Out("dout", 16).
		Reg("reg1", 16).
		Reg("reg2", 16).
		Reg("reg3", 16).
		Mux("m1", 16, 2).
		Unit(Unit{Name: "alu", Op: OpAdd, Width: 16}).
		Cloud("ctl", 1, 4, 1, 20).
		Wire("din", "reg1.d").
		Wire("reg1.q", "m1.in0").
		Wire("alu.out", "m1.in1").
		Wire("m1.out", "reg2.d").
		Wire("reg2.q", "reg3.d").
		Wire("reg3.q", "dout").
		Wire("reg1.q", "alu.in0").
		Wire("reg2.q", "alu.in1").
		Wire("reg1.q[3:0]", "ctl.in0").
		Wire("ctl.out", "m1.sel").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuildAndValidate(t *testing.T) {
	c := figure1Core(t)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.FFCount(); got != 48 {
		t.Errorf("FFCount = %d, want 48", got)
	}
	if got := c.InputBits(); got != 16 {
		t.Errorf("InputBits = %d, want 16", got)
	}
	if got := c.OutputBits(); got != 16 {
		t.Errorf("OutputBits = %d, want 16", got)
	}
	if len(c.Inputs()) != 1 || len(c.Outputs()) != 1 {
		t.Errorf("Inputs/Outputs = %d/%d, want 1/1", len(c.Inputs()), len(c.Outputs()))
	}
}

// TestCloneCarriesIndex: a clone of a built core has its own copy of the
// name index, so Lookup on the clone reads without building, and
// indexing a component added to the clone leaves the original's index
// alone.
func TestCloneCarriesIndex(t *testing.T) {
	c := figure1Core(t)
	nc := c.Clone()
	if nc.index == nil {
		t.Fatal("clone has no name index")
	}
	if k, i, ok := nc.Lookup("m1"); !ok || k != KindMux || i != 0 {
		t.Fatalf("clone Lookup(m1) = %v %d %v", k, i, ok)
	}
	nc.Muxes = append(nc.Muxes, Mux{Name: "xm", Width: 16, NumIn: 2})
	if err := nc.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := nc.Lookup("xm"); !ok {
		t.Fatal("Validate did not index the clone's added mux")
	}
	if _, _, ok := c.Lookup("xm"); ok {
		t.Fatal("the clone's added mux shows up in the original's index")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	_, err := NewCore("dup").In("x", 4).Reg("x", 4).Build()
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-name error, got %v", err)
	}
}

func TestWidthMismatchRejected(t *testing.T) {
	_, err := NewCore("wm").In("a", 8).Reg("r", 4).Wire("a", "r.d").Build()
	if err == nil || !strings.Contains(err.Error(), "width mismatch") {
		t.Fatalf("want width mismatch error, got %v", err)
	}
}

func TestDoubleDriverRejected(t *testing.T) {
	_, err := NewCore("dd").
		In("a", 4).In("b", 4).Reg("r", 4).
		Wire("a", "r.d").Wire("b", "r.d").
		Build()
	if err == nil || !strings.Contains(err.Error(), "driven by both") {
		t.Fatalf("want double-driver error, got %v", err)
	}
}

func TestBadSliceRejected(t *testing.T) {
	_, err := NewCore("bs").In("a", 4).Reg("r", 4).Wire("a[5:2]", "r.d").Build()
	if err == nil {
		t.Fatal("want out-of-range slice error, got nil")
	}
}

func TestSinkSourceDirectionRejected(t *testing.T) {
	_, err := NewCore("sd").In("a", 4).Out("z", 4).Reg("r", 4).Wire("z", "r.d").Build()
	if err == nil || !strings.Contains(err.Error(), "not a source") {
		t.Fatalf("want not-a-source error, got %v", err)
	}
	_, err = NewCore("sd2").In("a", 4).In("b", 4).Reg("r", 4).Wire("a", "b").Build()
	if err == nil || !strings.Contains(err.Error(), "not a sink") {
		t.Fatalf("want not-a-sink error, got %v", err)
	}
}

func TestParseEndpoint(t *testing.T) {
	cases := []struct {
		in      string
		comp    string
		pin     string
		lo, hi  int
		wantErr bool
	}{
		{"reg1", "reg1", "", 0, fullWidth, false},
		{"reg1.q", "reg1", "q", 0, fullWidth, false},
		{"reg1.q[3]", "reg1", "q", 3, 3, false},
		{"reg1.q[7:4]", "reg1", "q", 4, 7, false},
		{"a[2:5]", "", "", 0, 0, true}, // hi < lo
		{"a[-1]", "", "", 0, 0, true},
		{"a[3", "", "", 0, 0, true},
		{"", "", "", 0, 0, true},
		{".q", "", "", 0, 0, true},
	}
	for _, tc := range cases {
		ep, err := ParseEndpoint(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseEndpoint(%q): want error, got %v", tc.in, ep)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEndpoint(%q): %v", tc.in, err)
			continue
		}
		if ep.Comp != tc.comp || ep.Pin != tc.pin || ep.Lo != tc.lo || ep.Hi != tc.hi {
			t.Errorf("ParseEndpoint(%q) = %+v, want comp=%q pin=%q lo=%d hi=%d", tc.in, ep, tc.comp, tc.pin, tc.lo, tc.hi)
		}
	}
}

func TestTracePathsThroughMux(t *testing.T) {
	c := figure1Core(t)
	paths := tracePaths(c, SinkConns(c), Endpoint{"reg2", "d", 0, 15})
	// reg1.q -> m1@0 -> reg2.d is a mux path; alu.out via m1@1 is blocked.
	var found bool
	for _, p := range paths {
		if p.Src.Comp == "reg1" && p.Dst.Comp == "reg2" {
			found = true
			if len(p.Hops) != 1 || p.Hops[0] != (Hop{"m1", 0}) {
				t.Errorf("reg1->reg2 hops = %v, want [m1@0]", p.Hops)
			}
		}
		if p.Src.Comp == "alu" {
			t.Errorf("path through unit leaked: %v", p)
		}
	}
	if !found {
		t.Fatalf("no reg1->reg2 path found; paths=%v", paths)
	}
}

func TestTracePathsDirect(t *testing.T) {
	c := figure1Core(t)
	paths := tracePaths(c, SinkConns(c), Endpoint{"reg3", "d", 0, 15})
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1: %v", len(paths), paths)
	}
	p := paths[0]
	if p.Src.Comp != "reg2" || !p.Direct() {
		t.Errorf("want direct reg2->reg3, got %v", p)
	}
}

func TestTracePathsToOutput(t *testing.T) {
	c := figure1Core(t)
	paths := tracePaths(c, SinkConns(c), Endpoint{"dout", "", 0, 15})
	if len(paths) != 1 || paths[0].Src.Comp != "reg3" {
		t.Fatalf("want single reg3->dout path, got %v", paths)
	}
}

func TestTracePathsBitSliced(t *testing.T) {
	// A register driven piecewise: low nibble from input a, high nibble
	// from register r2 (a C-split at r1 in RCG terms).
	c, err := NewCore("slice").
		In("a", 4).
		Out("z", 8).
		Reg("r1", 8).
		Reg("r2", 4).
		Wire("a", "r1.d[3:0]").
		Wire("r2.q", "r1.d[7:4]").
		Wire("r1.q", "z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	paths := tracePaths(c, SinkConns(c), Endpoint{"r1", "d", 0, 7})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		switch p.Src.Comp {
		case "a":
			if p.Dst.Lo != 0 || p.Dst.Hi != 3 {
				t.Errorf("a slice lands at %v, want d[3:0]", p.Dst)
			}
		case "r2":
			if p.Dst.Lo != 4 || p.Dst.Hi != 7 {
				t.Errorf("r2 slice lands at %v, want d[7:4]", p.Dst)
			}
		default:
			t.Errorf("unexpected source %v", p.Src)
		}
	}
}

func TestAllPathsCoversRegsAndOutputs(t *testing.T) {
	c := figure1Core(t)
	all := AllPaths(c)
	dsts := map[string]bool{}
	for _, p := range all {
		dsts[p.Dst.Comp] = true
	}
	for _, want := range []string{"reg1", "reg2", "reg3", "dout"} {
		if !dsts[want] {
			t.Errorf("AllPaths missing destination %s (paths=%v)", want, all)
		}
	}
}

func TestPinWidthErrors(t *testing.T) {
	c := figure1Core(t)
	if _, err := c.PinWidth("nosuch", ""); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := c.PinWidth("reg1", "bogus"); err == nil {
		t.Error("unknown register pin accepted")
	}
	if _, err := c.PinWidth("reg1", "ld"); err == nil {
		t.Error("ld pin on load-less register accepted")
	}
	if w, err := c.PinWidth("m1", "sel"); err != nil || w != 1 {
		t.Errorf("m1.sel width = %d,%v want 1,nil", w, err)
	}
}

func TestMuxSelWidth(t *testing.T) {
	cases := []struct{ numIn, want int }{{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}}
	for _, tc := range cases {
		m := Mux{NumIn: tc.numIn}
		if got := m.SelWidth(); got != tc.want {
			t.Errorf("SelWidth(%d inputs) = %d, want %d", tc.numIn, got, tc.want)
		}
	}
}

func TestRegLdPin(t *testing.T) {
	c, err := NewCore("ld").
		In("a", 4).CtlIn("en", 1).
		Reg("plain", 4).
		RegLd("held", 4).
		Wire("a", "held.d").
		Wire("en", "held.ld").
		Wire("a", "plain.d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, ok := c.RegByName("held")
	if !ok || !r.HasLoad {
		t.Fatal("held register lost its load pin")
	}
	paths := tracePaths(c, SinkConns(c), Endpoint{"held", "ld", 0, 0})
	if len(paths) != 1 || paths[0].Src.Comp != "en" {
		t.Errorf("ld pin paths = %v, want en->held.ld", paths)
	}
}

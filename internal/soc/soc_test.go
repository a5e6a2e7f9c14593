package soc_test

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/rtl"
	"repro/internal/soc"
	"repro/internal/systems"
	"repro/internal/trans"
)

func tinyCore(name string) *rtl.Core {
	return must(rtl.NewCore(name).
		In("A", 4).
		Out("Z", 4).
		Reg("R", 4).
		Wire("A", "R.d").
		Wire("R.q", "Z").
		Build())
}

func TestValidateGoodChip(t *testing.T) {
	ch := &soc.Chip{
		Name:  "good",
		Cores: []*soc.Core{{Name: "C1", RTL: tinyCore("C1")}},
		PIs:   []soc.Pin{{Name: "IN", Width: 4}},
		POs:   []soc.Pin{{Name: "OUT", Width: 4}},
		Nets: []soc.Net{
			{FromPort: "IN", ToCore: "C1", ToPort: "A"},
			{FromCore: "C1", FromPort: "Z", ToPort: "OUT"},
		},
	}
	if err := ch.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadNets(t *testing.T) {
	base := func() *soc.Chip {
		return &soc.Chip{
			Name:  "bad",
			Cores: []*soc.Core{{Name: "C1", RTL: tinyCore("C1")}},
			PIs:   []soc.Pin{{Name: "IN", Width: 4}},
			POs:   []soc.Pin{{Name: "OUT", Width: 4}},
		}
	}
	cases := []struct {
		name string
		net  soc.Net
		want string
	}{
		{"unknown PI", soc.Net{FromPort: "NOPE", ToCore: "C1", ToPort: "A"}, "unknown PI"},
		{"unknown core", soc.Net{FromPort: "IN", ToCore: "NOPE", ToPort: "A"}, "unknown core"},
		{"wrong direction", soc.Net{FromCore: "C1", FromPort: "A", ToPort: "OUT"}, "not an output"},
		{"unknown PO", soc.Net{FromCore: "C1", FromPort: "Z", ToPort: "NOPE"}, "unknown PO"},
		{"input as sink of PO net", soc.Net{FromPort: "IN", ToCore: "C1", ToPort: "Z"}, "not an input"},
	}
	for _, tc := range cases {
		ch := base()
		ch.Nets = []soc.Net{tc.net}
		err := ch.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestTestableCoresExcludesMemory(t *testing.T) {
	ch := systems.System1()
	if got := len(ch.TestableCores()); got != 3 {
		t.Errorf("testable cores = %d, want 3", got)
	}
	names := map[string]bool{}
	for _, c := range ch.TestableCores() {
		names[c.Name] = true
	}
	if names["RAM"] || names["ROM"] {
		t.Error("memory cores leaked into TestableCores")
	}
}

func TestDriversAndSinks(t *testing.T) {
	ch := systems.System1()
	drivers := ch.DriversOf("CPU", "Data")
	// The CPU data input sits on a shared bus: PREPROCESSOR.DB and
	// RAM.Dout both drive it.
	if len(drivers) != 2 {
		t.Errorf("CPU.Data has %d drivers, want 2 (shared bus)", len(drivers))
	}
	sinks := ch.SinksOf("PREPROCESSOR", "DB")
	if len(sinks) != 2 {
		t.Errorf("PREPROCESSOR.DB feeds %d sinks, want 2 (CPU + DISPLAY)", len(sinks))
	}
	if len(ch.SinksOf("NOPE", "X")) != 0 {
		t.Error("unknown core has sinks")
	}
}

func TestVersionAccessor(t *testing.T) {
	c := &soc.Core{Name: "x", RTL: tinyCore("x")}
	if c.VersionAt(0) != nil {
		t.Error("unprepared core has a version")
	}
	v := &trans.Version{Label: "V1"}
	c.Versions = []*trans.Version{v}
	if c.VersionAt(0) != v {
		t.Error("index 0 did not return the first version")
	}
	if c.VersionAt(-1) != nil || c.VersionAt(1) != nil {
		t.Error("out-of-range index returned a version")
	}
}

// TestResolve pins the one rule that turns a requested selection into a
// design point: a missing core keeps Selected, an index clamps into the
// core's ladder, an empty ladder resolves to -1, and memory or unknown
// cores are left out.
func TestResolve(t *testing.T) {
	ladder := func(n int) []*trans.Version {
		vs := make([]*trans.Version, n)
		for i := range vs {
			vs[i] = &trans.Version{}
		}
		return vs
	}
	ch := &soc.Chip{Cores: []*soc.Core{
		{Name: "A", Versions: ladder(3), Selected: 1},
		{Name: "B", Versions: ladder(2), Selected: 4}, // Selected past the ladder
		{Name: "O", Selected: 0},                      // opaque: empty ladder
		{Name: "M", Memory: true, Versions: ladder(2)},
	}}
	cases := []struct {
		name string
		sel  map[string]int
		want map[string]int
	}{
		{"nil selection", nil, map[string]int{"A": 1, "B": 1, "O": -1}},
		{"missing core", map[string]int{"A": 2}, map[string]int{"A": 2, "B": 1, "O": -1}},
		{"negative index", map[string]int{"A": -3, "B": -1}, map[string]int{"A": 0, "B": 0, "O": -1}},
		{"index past the ladder", map[string]int{"A": 7, "B": 2}, map[string]int{"A": 2, "B": 1, "O": -1}},
		{"empty ladder of an opaque core", map[string]int{"O": 2}, map[string]int{"A": 1, "B": 1, "O": -1}},
		{"memory and unknown cores left out", map[string]int{"M": 1, "X": 0}, map[string]int{"A": 1, "B": 1, "O": -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := maps.Clone(tc.sel)
			got := ch.Resolve(tc.sel)
			if !maps.Equal(got, tc.want) {
				t.Errorf("Resolve(%v) = %v, want %v", tc.sel, got, tc.want)
			}
			if !maps.Equal(tc.sel, in) {
				t.Errorf("Resolve wrote its argument: %v, was %v", tc.sel, in)
			}
		})
	}
	if ch.Cores[1].Selected != 4 {
		t.Error("Resolve wrote a core's Selected")
	}
}

func TestNetString(t *testing.T) {
	n := soc.Net{FromCore: "A", FromPort: "o", ToCore: "B", ToPort: "i"}
	if n.String() != "A.o -> B.i" {
		t.Errorf("net string = %q", n.String())
	}
	pin := soc.Net{FromPort: "PI", ToCore: "B", ToPort: "i"}
	if pin.String() != "PI -> B.i" {
		t.Errorf("pin net string = %q", pin.String())
	}
}

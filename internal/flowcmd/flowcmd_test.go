package flowcmd

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/systems"
)

func TestChipSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ChipSpec
		ok   bool
	}{
		{"system1", ChipSpec{System: 1}, true},
		{"system2", ChipSpec{System: 2}, true},
		{"system3", ChipSpec{System: 3}, false},
		{"gen", ChipSpec{Gen: &GenSpec{Seed: 7}}, true},
		{"gen bad topology", ChipSpec{Gen: &GenSpec{Seed: 7, Topology: "nope"}}, false},
		{"script", ChipSpec{Script: "chip x\n"}, true},
		{"empty", ChipSpec{}, false},
		{"two of three", ChipSpec{System: 1, Gen: &GenSpec{}}, false},
		{"all three", ChipSpec{System: 1, Gen: &GenSpec{}, Script: "chip x\n"}, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestChipSpecKeyDistinguishes(t *testing.T) {
	keys := map[string]string{}
	for name, spec := range map[string]ChipSpec{
		"sys1":   {System: 1},
		"sys2":   {System: 2},
		"gen7":   {Gen: &GenSpec{Seed: 7, Cores: 8}},
		"gen8":   {Gen: &GenSpec{Seed: 8, Cores: 8}},
		"script": {Script: "chip x\n"},
	} {
		k := spec.Key()
		for other, ok := range keys {
			if ok == k {
				t.Fatalf("specs %s and %s share key %q", name, other, k)
			}
		}
		keys[name] = k
	}
	// Key must be stable — it is a cache identity.
	if a, b := (ChipSpec{Gen: &GenSpec{Seed: 7, Cores: 8}}).Key(), keys["gen7"]; a != b {
		t.Fatalf("Key not deterministic: %q vs %q", a, b)
	}
	// Empty topology normalizes to auto so equivalent specs share a flow.
	a := ChipSpec{Gen: &GenSpec{Seed: 7}}.Key()
	b := ChipSpec{Gen: &GenSpec{Seed: 7, Topology: "auto"}}.Key()
	if a != b {
		t.Fatalf("topology %q vs %q should share a key", a, b)
	}
}

// TestScriptKeyIsSHA256 pins script keys to the script's SHA-256: a
// 64-bit non-cryptographic hash would let two different scripts share one
// prepared flow and its evaluation caches in socetd.
func TestScriptKeyIsSHA256(t *testing.T) {
	script := "chip x\ncore a\n"
	sum := sha256.Sum256([]byte(script))
	if got, want := (ChipSpec{Script: script}).Key(), "script:"+hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	other := []byte(script)
	other[len(other)-2] ^= 1
	if a, b := (ChipSpec{Script: script}).Key(), (ChipSpec{Script: string(other)}).Key(); a == b {
		t.Fatalf("scripts differing in one byte share key %q", a)
	}
}

// TestSystemSpecsMatchDirect pins that going through ChipSpec produces
// the same prepared flow as constructing the system directly — the
// property that makes daemon results comparable with CLI results.
func TestSystemSpecsMatchDirect(t *testing.T) {
	for n := 1; n <= 2; n++ {
		ch, opts, err := (ChipSpec{System: n}).Build()
		if err != nil {
			t.Fatalf("system %d: %v", n, err)
		}
		got, err := core.Prepare(ch, opts)
		if err != nil {
			t.Fatalf("system %d: prepare: %v", n, err)
		}
		direct, err := System(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Prepare(direct, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("system %d: spec flow fingerprint %x != direct %x", n, got.Fingerprint(), want.Fingerprint())
		}
	}
}

// TestChipScriptRoundTrip pins the chip script codec: both example
// systems survive format → parse and prepare to the same flow
// fingerprint as the original chip.
func TestChipScriptRoundTrip(t *testing.T) {
	for _, ch := range []*soc.Chip{systems.System1(), systems.System2()} {
		script := FormatChipScript(ch, nil)
		got, opts, err := ParseChipScript(script)
		if err != nil {
			t.Fatalf("%s: parse: %v\nscript:\n%s", ch.Name, err, script)
		}
		if opts != nil {
			t.Fatalf("%s: unexpected vector overrides", ch.Name)
		}
		if got.Name != ch.Name || len(got.Cores) != len(ch.Cores) ||
			len(got.Nets) != len(ch.Nets) {
			t.Fatalf("%s: structure changed in round trip", ch.Name)
		}
		wantF, err := core.Prepare(ch, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotF, err := core.Prepare(got, nil)
		if err != nil {
			t.Fatalf("%s: prepare round-tripped chip: %v", ch.Name, err)
		}
		if gotF.Fingerprint() != wantF.Fingerprint() {
			t.Fatalf("%s: flow fingerprint changed in round trip", ch.Name)
		}
	}
}

func TestChipScriptVectors(t *testing.T) {
	ch := systems.System1()
	vecs := map[string]int{}
	for i, c := range ch.TestableCores() {
		vecs[c.Name] = 5 + i
	}
	_, opts, err := ParseChipScript(FormatChipScript(ch, vecs))
	if err != nil {
		t.Fatal(err)
	}
	if opts == nil {
		t.Fatal("vectors directives should surface as options")
	}
	if len(opts.VectorOverride) != len(vecs) {
		t.Fatalf("got %d overrides, want %d", len(opts.VectorOverride), len(vecs))
	}
	for name, n := range vecs {
		if opts.VectorOverride[name] != n {
			t.Fatalf("core %s: override %d, want %d", name, opts.VectorOverride[name], n)
		}
	}
}

func TestChipScriptErrors(t *testing.T) {
	cases := []struct {
		name   string
		script string
		wants  string
	}{
		{"empty", "", "missing chip NAME"},
		{"no chip line", "pi A 8\n", "missing chip NAME"},
		{"double chip", "chip a\nchip b\n", "exactly once"},
		{"unknown directive", "chip a\nbogus x\n", "unknown directive"},
		{"bad pin width", "chip a\npi A 0\n", "pin width"},
		{"huge pin width", "chip a\npi A 9999\n", "pin width"},
		{"dup pin", "chip a\npi A 8\npi A 8\n", "duplicate pin"},
		{"dup core", "chip a\ncore c\ni A 8\no Z 8\nw A Z\ncore c\n", "duplicate core"},
		{"vectors outside core", "chip a\nvectors 3\n", "core block"},
		{"netlist line outside core", "chip a\ni A 8\n", "outside a core block"},
		{"net arity", "chip a\nnet A\n", "net FROM TO"},
		{"net to nowhere", "chip a\npi A 8\nnet A nope\n", "unknown PO"},
		{"unbuildable core", "chip a\ncore c\nw A Z\n", "core c"},
	}
	for _, tc := range cases {
		_, _, err := ParseChipScript(tc.script)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wants)
		}
	}
}

func TestGenSpecBuildDeterministic(t *testing.T) {
	spec := ChipSpec{Gen: &GenSpec{Seed: 42, Cores: 6}}
	a, aOpts, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, bOpts, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if aOpts == nil || bOpts == nil {
		t.Fatal("generated chips must carry vector overrides")
	}
	fa, err := core.Prepare(a, aOpts)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := core.Prepare(b, bOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Fingerprint() != fb.Fingerprint() {
		t.Fatal("same GenSpec must prepare to the same flow fingerprint")
	}
	// The override rule is positional over testable cores.
	for i, c := range a.TestableCores() {
		if want := 10 + i%23; aOpts.VectorOverride[c.Name] != want {
			t.Fatalf("core %s: override %d, want %d", c.Name, aOpts.VectorOverride[c.Name], want)
		}
	}
}

func TestContextTimeout(t *testing.T) {
	ctx, cancel := Context(0)
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("zero timeout should not set a deadline")
	}
	cancel()
	ctx, cancel = Context(time.Minute)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("positive timeout should set a deadline")
	}
}

package rtl_test

import (
	"testing"

	"repro/internal/rtl"
	"repro/internal/soc"
	"repro/internal/systems"
)

// The fuzzer drives Builder/Validate through the line-based core script
// codec (rtl.DecodeScript / rtl.EncodeScript, see script.go) — the same
// wire format socetd job specs embed, so every corpus find here hardens
// the daemon's decode path too. Unknown or short lines are ignored, so
// arbitrary mutations still reach Build with a partially sensible
// structure; numeric fields are clamped to keep Validate's per-bit
// bookkeeping bounded.

// FuzzValidate asserts the builder's error contract on arbitrary netlist
// scripts: Build never panics, and any core it accepts passes Validate.
// It also runs Validate and the per-bit-map reference (RefValidate) on
// the core Build would validate, and requires the same result from both:
// both nil, or the same error text.
func FuzzValidate(f *testing.F) {
	for _, ch := range []*soc.Chip{systems.System1(), systems.System2()} {
		for _, c := range ch.Cores {
			f.Add(rtl.EncodeScript(c.RTL))
		}
	}
	f.Add("n tiny\ni A 8\no Z 8\nw A Z\n")
	f.Add("n loop\nr R 4\nw R.q R.d\n")
	f.Add("n sliced\ni A 8\no Z 4\nw A[7:4] Z\n")
	f.Add("n bad\ni A 4\ni A 4\n")
	f.Add("n mux\ni A 4\no Z 4\nm M 4 2\nw A M.in0\nw A M.in1\nw A[0] M.sel\nw M.out Z\n")
	// One script per error class Validate reports. An empty name cannot
	// be spelled in a script; TestValidateMatchesReference covers it.
	f.Add("n dup\ni x 4\nr x 4\nw x x.d\n")
	f.Add("n unknown\ni a 4\no z 4\nw ghost.q z\n")
	f.Add("n range\ni a 4\no z 8\nw a[7:0] z\n")
	f.Add("n widths\ni a 8\nr r 4\nw a r.d\n")
	f.Add("n source\no z 4\nr r 4\nw z r.d\n")
	f.Add("n sink\ni a 4\ni b 4\nw a b\n")
	f.Add("n double\ni a 4\ni b 4\nr r 4\nw a r.d\nw b[1:0] r.d[2:1]\n")
	// M.in1 and M.in01 once both passed as sinks of one 2-input mux, and
	// synth then dropped B: the aliased pin must be rejected.
	f.Add("n alias\ni A 4\ni B 4\no Z 4\nm M 4 2\nw A M.in1\nw B M.in01\nw A[0] M.sel\nw M.out Z\n")
	f.Fuzz(func(t *testing.T, script string) {
		if raw := rtl.DecodeUnvalidated(script); raw != nil {
			got, want := raw.Validate(), rtl.RefValidate(raw)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("Validate = %v, reference = %v", got, want)
			}
		}
		c, err := rtl.DecodeScript(script).Build()
		if err != nil {
			return // malformed input rejected with an error: the contract holds
		}
		if c == nil {
			t.Fatal("Build returned a nil core with a nil error")
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("Build accepted a core that fails Validate: %v", verr)
		}
	})
}

// TestScriptRoundTrip pins the codec: every example-system core must
// survive encode → decode → Build and still validate.
func TestScriptRoundTrip(t *testing.T) {
	for _, ch := range []*soc.Chip{systems.System1(), systems.System2()} {
		for _, c := range ch.Cores {
			got, err := rtl.DecodeScript(rtl.EncodeScript(c.RTL)).Build()
			if err != nil {
				t.Fatalf("%s/%s: round trip failed to build: %v", ch.Name, c.Name, err)
			}
			if got.Name != c.RTL.Name {
				t.Fatalf("%s: name %q after round trip", c.RTL.Name, got.Name)
			}
			if len(got.Ports) != len(c.RTL.Ports) || len(got.Regs) != len(c.RTL.Regs) ||
				len(got.Muxes) != len(c.RTL.Muxes) || len(got.Units) != len(c.RTL.Units) ||
				len(got.Conns) != len(c.RTL.Conns) {
				t.Fatalf("%s: structure changed in round trip", c.RTL.Name)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: round-tripped core fails Validate: %v", c.RTL.Name, err)
			}
		}
	}
}

package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestGoldenOutput locks the complete CLI output for both example systems
// and for two degradation reports — the flow is deterministic end to end,
// so any diff is a behavior change that must be reviewed (and blessed
// with -update).
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full flow (synthesis + ATPG) for every case")
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"system1", []string{"-system", "1"}},
		{"system2", []string{"-system", "2"}},
		// One broken net: both cores it served are diagnosed with it.
		{"system1-cut", []string{"-system", "1", "-fault", "cut:CPU.AddrLo->DISPLAY.ALo"}},
		// An opaque core plus one cut net the failures do not cross: no
		// failure is blamed on the cut.
		{"system1-opaque-cut", []string{"-system", "1", "-fault", "opaque:CPU,cut:DISPLAY.PORT6->PO-PORT6"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command("go", append([]string{"run", "."}, tc.args...)...).CombinedOutput()
			if err != nil {
				t.Fatalf("socet %v: %v\n%s", tc.args, err, out)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if string(out) != string(want) {
				t.Errorf("output differs from %s (re-bless with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
					golden, out, want)
			}
		})
	}
}

package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestArchGolden locks the -arch output: the wrapper baseline's chain
// balancing and the three-way architecture comparison are deterministic,
// so any diff is a behavior change that must be reviewed (and blessed
// with -update).
func TestArchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the flow via go run")
	}
	cases := []struct {
		name   string
		golden string
		args   []string
	}{
		{"wrapper", "wrapper1.golden", []string{"-arch", "wrapper", "-tam-width", "4", "-system", "1"}},
		{"all", "all1.golden", []string{"-arch", "all", "-system", "1"}},
		{"study", "study.golden", []string{"-study", "-study-cores", "8,16", "-study-widths", "1,4,16", "-j", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command("go", append([]string{"run", "."}, tc.args...)...).CombinedOutput()
			if err != nil {
				t.Fatalf("compare %v: %v\n%s", tc.args, err, out)
			}
			golden := filepath.Join("testdata", tc.golden)
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

// TestTAMWidthRejectsNonPositive requires a TAM width below 1 to fail at
// startup with an error naming the flag, instead of being evaluated as
// width 1.
func TestTAMWidthRejectsNonPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs compare via go run")
	}
	for _, w := range []string{"0", "-3"} {
		out, err := exec.Command("go", "run", ".", "-system", "2", "-arch", "wrapper", "-tam-width", w).CombinedOutput()
		if err == nil {
			t.Errorf("-tam-width %s: exit 0, want an error\n%s", w, out)
			continue
		}
		if !strings.Contains(string(out), "-tam-width") {
			t.Errorf("-tam-width %s: error does not name the flag:\n%s", w, out)
		}
	}
}

package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/synth"
)

// scanNetlist is a small sequential netlist: two 4-bit registers feeding
// an adder, so its patterns carry scan State.
func scanNetlist(t testing.TB) *gate.Netlist {
	t.Helper()
	sr, err := synth.Synthesize(must(rtl.NewCore("seq").
		In("a", 4).In("b", 4).
		Out("z", 4).
		Reg("r1", 4).Reg("r2", 4).
		Unit(rtl.Unit{Name: "add", Op: rtl.OpAdd, Width: 4}).
		Wire("a", "r1.d").
		Wire("b", "r2.d").
		Wire("r1.q", "add.in0").
		Wire("r2.q", "add.in1").
		Wire("add.out", "z").
		Build()))
	if err != nil {
		t.Fatal(err)
	}
	return sr.Netlist
}

func generate(t testing.TB, n *gate.Netlist) *Result {
	t.Helper()
	res, err := Generate(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// counts returns the store counters of the installed registry.
func counts(m *obs.Metrics) (hits, rejects, errs int64) {
	return m.Counter("atpg.store_hits").Value(), m.Counter("atpg.store_rejects").Value(), m.Counter("atpg.store_errors").Value()
}

// TestStoreRoundTripKeepsNilState stores a DFF-free netlist's test set:
// the loaded result must equal the generated one, with every State still
// nil ("keep"), not an empty slice.
func TestStoreRoundTripKeepsNilState(t *testing.T) {
	_, m := obs.Enable(0)
	defer obs.Disable()
	n := fullAdder()
	want := generate(t, n)
	s := NewStore(filepath.Join(t.TempDir(), "nested", "testsets"))
	if _, ok := s.Get(n, nil); ok {
		t.Fatal("empty store hit")
	}
	s.Put(n, nil, want)
	got, ok := s.Get(n, nil)
	if !ok {
		t.Fatal("stored test set missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, generated %+v", got, want)
	}
	for i, p := range got.Patterns {
		if p.State != nil {
			t.Fatalf("pattern %d: State = %v, want nil", i, p.State)
		}
	}
	if hits, rejects, errs := counts(m); hits != 1 || rejects != 0 || errs != 0 {
		t.Fatalf("hits, rejects, errors = %d, %d, %d; want 1, 0, 0", hits, rejects, errs)
	}
}

// TestStoreTamper damages a stored entry in every way a state directory
// can go wrong. Each must read as a miss that counts one reject, so the
// caller regenerates the same result and overwrites the entry.
func TestStoreTamper(t *testing.T) {
	nets := map[string]*gate.Netlist{"fa": fullAdder(), "seq": scanNetlist(t)}
	results := map[string]*Result{}
	for name, n := range nets {
		results[name] = generate(t, n)
	}
	// reframe rewrites name's entry file with the entry edited by f.
	reframe := func(t *testing.T, s *Store, name string, f func(e *entry)) {
		key := storeKey(nets[name], nil)
		payload, _, err := ckpt.Load(s.path(key), nil)
		if err != nil || payload == nil {
			t.Fatalf("reading %s entry: %v", name, err)
		}
		var e entry
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		f(&e)
		payload, err = json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckpt.AtomicWrite(s.path(key), ckpt.AppendFrame(nil, payload)); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(t *testing.T, s *Store, path func(string) string){
		"flipped payload byte": func(t *testing.T, s *Store, path func(string) string) {
			b, err := os.ReadFile(path("fa"))
			if err != nil {
				t.Fatal(err)
			}
			b[ckpt.HeaderSize+len(b[ckpt.HeaderSize:])/2] ^= 0x10
			if err := os.WriteFile(path("fa"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated file": func(t *testing.T, s *Store, path func(string) string) {
			st, err := os.Stat(path("fa"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path("fa"), st.Size()-1); err != nil {
				t.Fatal(err)
			}
		},
		"swapped entries": func(t *testing.T, s *Store, path func(string) string) {
			tmp := path("fa") + ".swap"
			for _, mv := range [][2]string{{path("fa"), tmp}, {path("seq"), path("fa")}, {tmp, path("seq")}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		},
		"foreign key": func(t *testing.T, s *Store, path func(string) string) {
			reframe(t, s, "fa", func(e *entry) { e.Key = storeKey(nets["seq"], nil) })
		},
		"foreign result under the right key": func(t *testing.T, s *Store, path func(string) string) {
			reframe(t, s, "fa", func(e *entry) { e.Result = results["seq"] })
		},
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewStore(t.TempDir())
			for n, net := range nets {
				s.Put(net, nil, results[n])
			}
			path := func(n string) string { return s.path(storeKey(nets[n], nil)) }
			tamper(t, s, path)

			_, m := obs.Enable(0)
			defer obs.Disable()
			if got, ok := s.Get(nets["fa"], nil); ok {
				t.Fatalf("tampered entry served: %+v", got.Stats)
			}
			if hits, rejects, errs := counts(m); hits != 0 || rejects != 1 || errs != 0 {
				t.Fatalf("hits, rejects, errors = %d, %d, %d; want 0, 1, 0", hits, rejects, errs)
			}
			regen := generate(t, nets["fa"])
			if !reflect.DeepEqual(regen, results["fa"]) {
				t.Fatal("regeneration differs from the original test set")
			}
			s.Put(nets["fa"], nil, regen)
			got, ok := s.Get(nets["fa"], nil)
			if !ok || !reflect.DeepEqual(got, results["fa"]) {
				t.Fatalf("overwritten entry: hit %v, equal %v", ok, reflect.DeepEqual(got, results["fa"]))
			}
		})
	}
}

// TestStoreKey requires the key to follow exactly what Generate reads:
// gate types, fanins, PO lines and the resolved options, but no names.
func TestStoreKey(t *testing.T) {
	base := storeKey(fullAdder(), nil)
	changed := map[string]func(n *gate.Netlist) *Options{
		"one fanin":       func(n *gate.Netlist) *Options { n.Gates[len(n.Gates)-1].Fanin[1] = 0; return nil },
		"one gate type":   func(n *gate.Netlist) *Options { n.Gates[3].Type = gate.Xnor; return nil },
		"one PO line":     func(n *gate.Netlist) *Options { n.POs[1] = 5; return nil },
		"backtrack limit": func(*gate.Netlist) *Options { return &Options{BacktrackLimit: 65, Compact: true} },
		"fill seed":       func(*gate.Netlist) *Options { return &Options{FillSeed: 7, Compact: true} },
		"no compaction":   func(*gate.Netlist) *Options { return &Options{} },
		"random patterns": func(*gate.Netlist) *Options { return &Options{RandomPatterns: -1, Compact: true} },
	}
	for name, f := range changed {
		n := fullAdder()
		if storeKey(n, f(n)) == base {
			t.Errorf("changing %s keeps the key", name)
		}
	}
	same := map[string]func(n *gate.Netlist) *Options{
		"netlist name": func(n *gate.Netlist) *Options { n.Name = "other"; return nil },
		"gate names":   func(n *gate.Netlist) *Options { n.Gates[0].Name, n.Gates[4].Name = "x", "y"; return nil },
		"PO names":     func(n *gate.Netlist) *Options { n.PONames[0] = "s"; return nil },
		"explicit defaults": func(*gate.Netlist) *Options {
			return &Options{BacktrackLimit: 64, FillSeed: 0x5eed, Compact: true, RandomPatterns: 192}
		},
	}
	for name, f := range same {
		n := fullAdder()
		if storeKey(n, f(n)) != base {
			t.Errorf("changing %s changes the key", name)
		}
	}
}

// TestStoreVersionPinsGolden ties the store version to the golden test
// sets. Re-blessing testdata/golden.txt means ATPG output changed, and
// entries made by the older code must stop being served.
func TestStoreVersionPinsGolden(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != storeVersion {
		t.Fatalf("ATPG output changed: bump the test-set store version (set storeVersion to %s)", got)
	}
}

// TestStoreErrorsAreCounted makes reads and writes fail: both are
// counted, and neither is a hit.
func TestStoreErrorsAreCounted(t *testing.T) {
	_, m := obs.Enable(0)
	defer obs.Disable()
	n := fullAdder()
	res := generate(t, n)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	NewStore(filepath.Join(file, "testsets")).Put(n, nil, res)
	s := NewStore(t.TempDir())
	if err := os.Mkdir(s.path(storeKey(n, nil)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(n, nil); ok {
		t.Fatal("unreadable entry served")
	}
	if hits, rejects, errs := counts(m); hits != 0 || rejects != 0 || errs != 2 {
		t.Fatalf("hits, rejects, errors = %d, %d, %d; want 0, 0, 2", hits, rejects, errs)
	}
}

// FuzzTestSetDecode holds decodeEntry to never panicking and to never
// accepting a result that does not fit the netlist it is asked for.
func FuzzTestSetDecode(f *testing.F) {
	nets := []*gate.Netlist{fullAdder(), scanNetlist(f)}
	for _, n := range nets {
		payload, err := json.Marshal(entry{Key: storeKey(n, nil), Result: generate(f, n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"key":"","result":{"Patterns":[{"PI":"AAE=","State":""}],"Stats":{}}}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, n := range nets {
			res := decodeEntry(payload, storeKey(n, nil), n)
			if res == nil {
				continue
			}
			nPI, nFF := len(n.PIs()), len(n.DFFs())
			for i, p := range res.Patterns {
				if len(p.PI) != nPI || (nFF == 0) != (p.State == nil) || len(p.State) != nFF {
					t.Fatalf("%s: accepted pattern %d with widths %d/%d, netlist has %d PIs, %d DFFs", n.Name, i, len(p.PI), len(p.State), nPI, nFF)
				}
				for _, v := range append(append([]byte(nil), p.PI...), p.State...) {
					if v > 1 {
						t.Fatalf("%s: accepted pattern %d with value %d", n.Name, i, v)
					}
				}
			}
			s := res.Stats
			if s.Faults != len(n.Faults()) || s.Vectors != len(res.Patterns) || s.Detected+s.Untestable+s.Aborted != s.Faults {
				t.Fatalf("%s: accepted inconsistent stats %+v for %d patterns", n.Name, s, len(res.Patterns))
			}
		}
	})
}

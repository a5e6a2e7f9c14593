package atpg

import (
	"fmt"
	"testing"

	"repro/internal/fsim"
	"repro/internal/gate"
)

// refutedFaults returns the faults of the list that the redundancy check
// refutes on e.
func refutedFaults(e *engine, faults []gate.Fault) []gate.Fault {
	var out []gate.Fault
	for _, f := range faults {
		e.reset(f)
		if e.redundant() {
			out = append(out, f)
		}
	}
	return out
}

// exhaustive returns every input and state vector of n.
func exhaustive(n *gate.Netlist) []gate.Pattern {
	nPI, nFF := len(n.PIs()), len(n.DFFs())
	pats := make([]gate.Pattern, 1<<(nPI+nFF))
	for v := range pats {
		p := gate.Pattern{PI: make([]byte, nPI)}
		if nFF > 0 {
			p.State = make([]byte, nFF)
		}
		for i := range p.PI {
			p.PI[i] = byte(v >> i & 1)
		}
		for i := range p.State {
			p.State[i] = byte(v >> (nPI + i) & 1)
		}
		pats[v] = p
	}
	return pats
}

// FuzzRedundant checks the redundancy check against exhaustive
// simulation. On a random netlist, at most 6 controllable lines wide, no
// fault of faultKinds the check refutes may be detected by any input and
// state vector. Each seed fails under one wrong rule and only that one:
//
//   - 3, a branch fault on a stem that reconverges at its own victim,
//     which reads the stem on two slots: fails if the other slot must
//     take a side value, though fault simulation corrupts the stem at
//     every slot of the victim;
//   - 8, a mux dominator: fails if the select must pick the data input
//     off the cone;
//   - 4, an XOR dominator: fails if its side input must be 1.
func FuzzRedundant(f *testing.F) {
	for _, seed := range []uint64{3, 8, 4} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		n := randomNetlist(seed)
		e, err := newEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		refuted := refutedFaults(e, faultKinds(n))
		fr, err := fsim.Combinational(n, exhaustive(n), refuted)
		if err != nil {
			t.Fatal(err)
		}
		for i, by := range fr.DetectedBy {
			if by >= 0 {
				t.Errorf("seed %d: fault %v is refuted, but vector %d detects it", seed, refuted[i], by)
			}
		}
	})
}

// refutedDetected returns the faults of n that the redundancy check
// refutes, and a line for each of them that a PODEM search at the
// default budget, or the final patterns of Generate at either of
// digestOptions, detects.
func refutedDetected(t *testing.T, n *gate.Netlist) (refuted []gate.Fault, detected []string) {
	t.Helper()
	e, err := newEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	limit := (*Options)(nil).withDefaults().BacktrackLimit
	for _, f := range n.Faults() {
		e.reset(f)
		if !e.redundant() {
			continue
		}
		refuted = append(refuted, f)
		// The check leaves the engine as reset left it.
		if out, _ := e.podem(limit); out == outDetected {
			detected = append(detected, fmt.Sprintf("%s fault %v: PODEM detects it with %v", n.Name, f, e.assign))
		}
	}
	for _, o := range digestOptions {
		res, err := Generate(n, o)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fsim.Combinational(n, res.Patterns, refuted)
		if err != nil {
			t.Fatal(err)
		}
		for i, by := range fr.DetectedBy {
			if by >= 0 {
				detected = append(detected, fmt.Sprintf("%s fault %v: pattern %d of Generate(%+v) detects it", n.Name, refuted[i], by, o))
			}
		}
	}
	return refuted, detected
}

// TestRefutedFaultsStayUndetected cross-checks the redundancy check on
// TestGenerateDigest's 114 netlists, the six paper cores among them: no
// fault it refutes may be detected by a PODEM search at the default
// budget, or by the final patterns of Generate at either option set.
func TestRefutedFaultsStayUndetected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs PODEM on every refuted fault and ATPG twice on 114 netlists")
	}
	nets := digestNetlists(t)
	refuted, faults := 0, 0
	for _, n := range nets {
		r, detected := refutedDetected(t, n)
		for _, d := range detected {
			t.Error(d)
		}
		refuted += len(r)
		faults += len(n.Faults())
	}
	t.Logf("%d netlists: the check refutes %d of %d faults", len(nets), refuted, faults)
	if refuted == 0 {
		t.Error("the check refuted no fault: the cross-check has nothing to check")
	}
}

// TestUnsoundRuleFailsCrossCheck is the cross-check's tamper twin. It
// requires 1 on the side inputs of XOR dominators, a rule that holds for
// no XOR: the effect passes an XOR at either side value. The check then
// refutes detectable faults, and the cross-check must catch one.
func TestUnsoundRuleFailsCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cross-check until it fails")
	}
	defer func(v byte) { sensitizing[gate.Xor] = v }(sensitizing[gate.Xor])
	sensitizing[gate.Xor] = hi
	for _, n := range digestNetlists(t) {
		if _, detected := refutedDetected(t, n); len(detected) > 0 {
			t.Logf("the unsound rule fails the cross-check on %s, %d times: %s", n.Name, len(detected), detected[0])
			return
		}
	}
	t.Fatal("an unsound rule passed the cross-check: it cannot see a wrong refutation")
}

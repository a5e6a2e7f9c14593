// Package bist provides memory built-in self-test for the RAM/ROM cores
// that the paper excludes from the CCG ("most memory cores use BIST",
// Section 5, citing Zorian's distributed BIST control scheme [8]). March
// C- is generated for RAMs and a checksum sweep for ROMs; the BIST engines
// run concurrently with the logic-core tests, so they contribute to the
// global TAT only if they dominate it.
package bist

import (
	"repro/internal/cell"
	"repro/internal/soc"
)

// MarchElement is one march element: an address-order sweep applying
// read/write operations per cell.
type MarchElement struct {
	Ascending bool
	Ops       []string // e.g. "r0", "w1"
}

// MarchCMinus returns the march C- algorithm: {⇕(w0); ⇑(r0,w1); ⇑(r1,w0);
// ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)} — 10N operations.
func MarchCMinus() []MarchElement {
	return []MarchElement{
		{Ascending: true, Ops: []string{"w0"}},
		{Ascending: true, Ops: []string{"r0", "w1"}},
		{Ascending: true, Ops: []string{"r1", "w0"}},
		{Ascending: false, Ops: []string{"r0", "w1"}},
		{Ascending: false, Ops: []string{"r1", "w0"}},
		{Ascending: false, Ops: []string{"r0"}},
	}
}

// Plan is the BIST plan for one memory core.
type Plan struct {
	Core   string
	Words  int
	Cycles int       // test application time of the BIST run
	Area   cell.Area // BIST controller area
}

// PlanMemory sizes a BIST run for a memory core: the address space is
// 2^addrBits words; march C- costs 10 operations per word (ROMs get a
// 2N read-and-checksum sweep instead).
func PlanMemory(c *soc.Core) *Plan {
	addrBits := 0
	writable := false
	for _, p := range c.RTL.Ports {
		if p.Name == "Addr" {
			addrBits = p.Width
		}
		if p.Name == "WE" {
			writable = true
		}
	}
	words := 1 << uint(addrBits)
	p := &Plan{Core: c.Name, Words: words}
	if writable {
		opsPerWord := 0
		for _, e := range MarchCMinus() {
			opsPerWord += len(e.Ops)
		}
		p.Cycles = words * opsPerWord
	} else {
		p.Cycles = 2 * words // read sweep + signature compare
	}
	// Controller: address counter, data generator, comparator FSM.
	p.Area.Add(cell.DFF, addrBits+4)
	p.Area.Add(cell.Nand2, 3*addrBits)
	p.Area.Add(cell.Xor2, 8)
	return p
}

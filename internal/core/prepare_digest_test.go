package core_test

// The prepare digest pins, byte for byte, what core.Prepare builds for
// each core before ATPG: the synthesized netlist and its line map, the
// HSCAN result and the transparency version ladder. A change that only
// makes prepare cheaper must leave every digest as it is.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/socgen"
	"repro/internal/synth"
	"repro/internal/systems"
	"repro/internal/trans"
)

// prepareDigests are the SHA-256s of renderPrepared per chip. The
// seed-1 256-core RandomDAG chip holds the cores of every seed-1
// `compare -study` chip: socgen's core i depends only on the seed and i.
var prepareDigests = map[string]string{
	"system1":     "a34480ca66cbe87269a4eec5997671e36dd4f229b9ae0632e33db3e548e94a8e",
	"system2":     "fc05ceab7dd7924e42ff7228e624ddac4916227efc0eb5ec28f338b12df63229",
	"gen1-dag256": "62cecc0146ad152026c0c8293f91a410b3b92925b2f3c9224b1329af53a777b8",
}

func prepareChip(t *testing.T, name string) *core.Flow {
	t.Helper()
	var ch *soc.Chip
	switch name {
	case "system1":
		ch = systems.System1()
	case "system2":
		ch = systems.System2()
	case "gen1-dag256":
		var err error
		if ch, err = socgen.Generate(socgen.Params{Seed: 1, Cores: 256, Topology: socgen.RandomDAG}); err != nil {
			t.Fatal(err)
		}
	}
	// ATPG is not part of the digest; a vector override skips it.
	vecs := map[string]int{}
	for _, c := range ch.TestableCores() {
		vecs[c.Name] = 1
	}
	f, err := core.Prepare(ch, &core.Options{VectorOverride: vecs})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// renderPrepared renders every core's prepare artifacts in chip order.
func renderPrepared(f *core.Flow) string {
	var b strings.Builder
	for _, c := range f.Chip.Cores {
		fmt.Fprintf(&b, "core %s memory=%v\n", c.Name, c.Memory)
		renderSynth(&b, f.Cores[c.Name].Synth)
		if c.Memory {
			continue
		}
		s := c.Scan
		fmt.Fprintf(&b, "hscan depth=%d area=%s\n", s.MaxDepth, &s.Area)
		for _, ch := range s.Chains {
			fmt.Fprintf(&b, " chain %v\n", ch.Regs)
			for _, l := range ch.Links {
				fmt.Fprintf(&b, "  link %+v\n", l)
			}
		}
		for _, e := range s.Edges {
			fmt.Fprintf(&b, " edge %+v\n", e)
		}
		renderLadder(&b, c.Versions)
	}
	return b.String()
}

// renderSynth writes the netlist gate by gate (type, fanins, name), its
// POs in order, and the line map sorted by pin bit.
func renderSynth(b *strings.Builder, r *synth.Result) {
	n := r.Netlist
	fmt.Fprintf(b, "netlist %s gates=%d\n", n.Name, len(n.Gates))
	for i, g := range n.Gates {
		fmt.Fprintf(b, " g%d %v %v %q\n", i, g.Type, g.Fanin, g.Name)
	}
	for i, id := range n.POs {
		fmt.Fprintf(b, " po %d %q\n", id, n.PONames[i])
	}
	keys := make([]synth.PinBit, 0, len(r.Line))
	for k := range r.Line {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, c := keys[i], keys[j]
		if a.Comp != c.Comp {
			return a.Comp < c.Comp
		}
		if a.Pin != c.Pin {
			return a.Pin < c.Pin
		}
		return a.Bit < c.Bit
	})
	for _, k := range keys {
		fmt.Fprintf(b, " line %s.%s[%d]=%d\n", k.Comp, k.Pin, k.Bit, r.Line[k])
	}
}

// renderLadder writes each version's RCG edges and every solved path's
// latency, edge masks, freezes and ends, in the shape of the trans
// package's ladderSignature.
func renderLadder(b *strings.Builder, vs []*trans.Version) {
	for _, v := range vs {
		fmt.Fprintf(b, "version %d %q area=%s\n", v.Index, v.Label, &v.Area)
		for _, e := range v.RCG.Edges {
			fmt.Fprintf(b, " edge %d %d->%d s[%d:%d] d[%d:%d] h=%v c=%v sm=%v hops=%v\n",
				e.ID, e.From, e.To, e.SrcLo, e.SrcHi, e.DstLo, e.DstHi, e.HSCAN, e.Created, e.ScanMux, e.Hops)
		}
		for _, m := range []map[string]*trans.PathUse{v.Just, v.Prop} {
			names := make([]string, 0, len(m))
			for n := range m {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				p := m[n]
				var edges, freezes []string
				for id, mask := range p.Edges {
					edges = append(edges, fmt.Sprintf("%d:%x", id, mask))
				}
				for r, c := range p.Freezes {
					freezes = append(freezes, fmt.Sprintf("%s:%d", r, c))
				}
				var ends []int
				for e := range p.Ends {
					ends = append(ends, e)
				}
				sort.Strings(edges)
				sort.Strings(freezes)
				sort.Ints(ends)
				fmt.Fprintf(b, " path %s lat=%d edges=%v freezes=%v ends=%v\n", n, p.Latency, edges, freezes, ends)
			}
		}
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestPrepareDigest requires every chip's rendered prepare artifacts to
// hash to the blessed digest.
func TestPrepareDigest(t *testing.T) {
	for _, name := range []string{"system1", "system2", "gen1-dag256"} {
		t.Run(name, func(t *testing.T) {
			if got := digest(renderPrepared(prepareChip(t, name))); got != prepareDigests[name] {
				t.Fatalf("prepare digest %s, want %s", got, prepareDigests[name])
			}
		})
	}
}

// TestPrepareDigestTamper shows the digest sees a one-cycle latency
// change and a one-line fanin change.
func TestPrepareDigestTamper(t *testing.T) {
	f := prepareChip(t, "system1")
	want := prepareDigests["system1"]
	if got := digest(renderPrepared(f)); got != want {
		t.Fatalf("untampered digest %s, want %s", got, want)
	}
	cpu, _ := f.Chip.CoreByName("CPU")
	for _, p := range cpu.Versions[0].Prop {
		p.Latency++
		break
	}
	if digest(renderPrepared(f)) == want {
		t.Error("a latency one cycle off left the digest unchanged")
	}
	f = prepareChip(t, "system1")
	n := f.Cores["CPU"].Synth.Netlist
	for i := range n.Gates {
		if len(n.Gates[i].Fanin) > 0 {
			n.Gates[i].Fanin[0]++
			break
		}
	}
	if digest(renderPrepared(f)) == want {
		t.Error("a fanin one line off left the digest unchanged")
	}
}

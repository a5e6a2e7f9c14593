package wrap

import (
	"testing"
)

// FuzzTAMAssign decodes arbitrary bytes into a wrapped-core shape (TAM
// width, internal chain loads, boundary bit counts), balances it at every
// width with one wrapAllWidths call and checks the balancing invariants
// that every caller relies on: full structural coverage of chains and
// port bits, SI/SO consistency with the recorded items, TAT matching the
// formula, monotonicity in the TAM width, and equality of the bounded
// search with the unbounded from-scratch reference at each width.
func FuzzTAMAssign(f *testing.F) {
	f.Add([]byte{2, 3, 4, 3, 2, 10, 5})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{8, 5, 3, 3, 2, 2, 2, 40, 17})
	f.Add([]byte{4, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 9, 9})
	// ExactMaxChains distinct loads and boundary bits at width 8: the
	// deepest exact search the decoding reaches.
	f.Add([]byte{7, ExactMaxChains, 32, 29, 26, 23, 19, 15, 11, 7, 3, 101, 58})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w := int(data[0])%8 + 1
		k := int(data[1]) % 13
		if len(data) < 2+k+2 {
			return
		}
		chains := make([]int, k)
		for i := 0; i < k; i++ {
			chains[i] = int(data[2+i]) % 33
		}
		in := int(data[2+k]) % 120
		out := int(data[2+k+1]) % 120
		vectors := 1 + (in+out)%29

		c := testCore("F", in, out, vectors, chains...)
		prev := -1
		crs := wrapAllWidths(c, w)
		checkAgainstReference(t, c, crs)
		for i, cr := range crs {
			width := i + 1
			if prev >= 0 && cr.TAT > prev {
				t.Fatalf("TAT rose %d -> %d at width %d (chains %v in=%d out=%d)", prev, cr.TAT, width, chains, in, out)
			}
			prev = cr.TAT
			if cr.Width > width {
				t.Fatalf("built %d chains at width %d", cr.Width, width)
			}
			si, so := 0, 0
			inSum, outSum, scanSum := 0, 0, 0
			used := map[int]int{}
			for _, wc := range cr.Chains {
				csi, cso := 0, 0
				for _, it := range wc.Items {
					if it.Bits < 0 {
						t.Fatalf("negative item %+v", it)
					}
					switch it.Kind {
					case ItemInputCells:
						inSum += it.Bits
						csi += it.Bits
					case ItemScanChain:
						scanSum += it.Bits
						csi += it.Bits
						cso += it.Bits
						used[it.Chain]++
					case ItemOutputCells:
						outSum += it.Bits
						cso += it.Bits
					}
				}
				if csi != wc.SI || cso != wc.SO {
					t.Fatalf("chain items (%d/%d) disagree with SI/SO (%d/%d)", csi, cso, wc.SI, wc.SO)
				}
				si = max(si, wc.SI)
				so = max(so, wc.SO)
			}
			if si != cr.SI || so != cr.SO {
				t.Fatalf("chain maxima %d/%d disagree with core SI/SO %d/%d", si, so, cr.SI, cr.SO)
			}
			if inSum != in || outSum != out {
				t.Fatalf("boundary coverage %d/%d, want %d/%d", inSum, outSum, in, out)
			}
			wantScan := 0
			for i, d := range chains {
				wantScan += d
				if used[i] != 1 {
					t.Fatalf("chain %d used %d times", i, used[i])
				}
			}
			if scanSum != wantScan {
				t.Fatalf("scan coverage %d, want %d", scanSum, wantScan)
			}
			if got := coreTAT(cr.SI, cr.SO, vectors); got != cr.TAT {
				t.Fatalf("TAT %d violates the formula (%d)", cr.TAT, got)
			}
		}
	})
}

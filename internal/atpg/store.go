package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
	"repro/internal/gate"
	"repro/internal/obs"
)

// storeVersion names the ATPG output that store entries hold: the SHA-256
// of testdata/golden.txt, which pins every System 1 and System 2 test
// set. It is part of every key, so when a change to test generation
// re-blesses the golden and sets this to the new hash
// (TestStoreVersionPinsGolden fails until it does), entries made by the
// older code are never looked up again.
const storeVersion = "0b9c74d7f366316e8f3245126c4ec3ab2434d138f13980939e85b37165e829f5"

// Store is a content-addressed cache of generated test sets, one file per
// entry in a directory. An entry's key is a SHA-256 over storeVersion,
// everything Generate reads from the netlist (gate types and fanins in ID
// order, then the PO line list; no names) and the resolved Options. Its
// file is one ckpt frame holding the key and the Result as JSON.
//
// A stored entry is survived, never trusted: it is served only when its
// embedded key equals the requested one and its result fits the netlist
// (see decodeEntry). Anything else is a miss the caller regenerates and
// overwrites. A nil *Store stores nothing and always misses.
type Store struct {
	dir string
}

// NewStore returns a store rooted at dir. The directory is created by
// the first Put.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// entry is the payload of one store file.
type entry struct {
	Key    string  `json:"key"`
	Result *Result `json:"result"`
}

// storeKey returns the key of generating n's test set with opts.
func storeKey(n *gate.Netlist, opts *Options) string {
	// %+v names every field, so a new option joins the key by itself.
	buf := fmt.Appendf([]byte(storeVersion), "%+v", opts.withDefaults())
	word := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	word(len(n.Gates))
	for _, g := range n.Gates {
		word(int(g.Type))
		word(len(g.Fanin))
		for _, in := range g.Fanin {
			word(in)
		}
	}
	word(len(n.POs))
	for _, po := range n.POs {
		word(po)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".ck") }

// Get returns the stored test set of n under opts. It reports false, and
// the caller generates, when there is no entry, when reading it fails
// (counted in atpg.store_errors) and when the entry does not check out
// (counted in atpg.store_rejects).
func (s *Store) Get(n *gate.Netlist, opts *Options) (*Result, bool) {
	if s == nil {
		return nil, false
	}
	key := storeKey(n, opts)
	var res *Result
	_, discarded, err := ckpt.Load(s.path(key), func(payload []byte) bool {
		r := decodeEntry(payload, key, n)
		if r != nil {
			res = r
		}
		return r != nil
	})
	switch {
	case err != nil:
		obs.C("atpg.store_errors").Inc()
	case res != nil:
		obs.C("atpg.store_hits").Inc()
		return res, true
	case discarded > 0:
		obs.C("atpg.store_rejects").Inc()
	}
	return nil, false
}

// Put records res as the test set of n under opts, replacing any entry.
// A failed write is counted in atpg.store_errors and otherwise ignored:
// the store only saves work.
func (s *Store) Put(n *gate.Netlist, opts *Options, res *Result) {
	if s == nil {
		return
	}
	key := storeKey(n, opts)
	payload, err := json.Marshal(entry{Key: key, Result: res})
	if err == nil {
		err = os.MkdirAll(s.dir, 0o755)
	}
	if err == nil {
		err = ckpt.AtomicWrite(s.path(key), ckpt.AppendFrame(nil, payload))
	}
	if err != nil {
		obs.C("atpg.store_errors").Inc()
	}
}

// decodeEntry returns the result payload holds, or nil unless payload is
// an entry for exactly key whose result could have been generated from
// n: every pattern has one 0/1 value per PI and per DFF, State is nil
// exactly when n has no DFFs (nil means "keep the state"), the counts
// partition n's fault list, and Vectors counts the patterns.
func decodeEntry(payload []byte, key string, n *gate.Netlist) *Result {
	var e entry
	if json.Unmarshal(payload, &e) != nil || e.Key != key || e.Result == nil {
		return nil
	}
	nPI, nFF := len(n.PIs()), len(n.DFFs())
	for _, p := range e.Result.Patterns {
		if !zeroOnes(p.PI, nPI) || (nFF == 0) != (p.State == nil) || (nFF > 0 && !zeroOnes(p.State, nFF)) {
			return nil
		}
	}
	s := e.Result.Stats
	if s.Faults != len(n.Faults()) || s.Vectors != len(e.Result.Patterns) {
		return nil
	}
	for _, c := range []int{s.Detected, s.Untestable, s.Aborted} {
		if c < 0 || c > s.Faults {
			return nil
		}
	}
	if s.Detected+s.Untestable+s.Aborted != s.Faults {
		return nil
	}
	return e.Result
}

// zeroOnes reports whether v holds exactly width values, each 0 or 1.
func zeroOnes(v []byte, width int) bool {
	if len(v) != width {
		return false
	}
	for _, b := range v {
		if b > 1 {
			return false
		}
	}
	return true
}

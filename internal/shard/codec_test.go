package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/resil"
)

func testState(seq uint64) *State {
	return &State{
		Schema:      StateSchema,
		Kind:        "explore",
		Fingerprint: 0xDEADBEEFCAFEF00D,
		Shards:      4,
		Shard:       2,
		Total:       1000,
		Window:      Range{Lo: 500, Hi: 750},
		Seq:         seq,
		Done:        []Range{{Lo: 500, Hi: 600 + int64(seq)}},
		Front: []FrontPoint{
			{Selection: map[string]int{"A": 0, "B": 1}, Cells: 10, TAT: 100},
			{Selection: map[string]int{"A": 1, "B": 0}, Cells: 20, TAT: 90},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	var err error
	for seq := uint64(1); seq <= 3; seq++ {
		buf, err = AppendFrame(buf, testState(seq))
		if err != nil {
			t.Fatal(err)
		}
	}
	last, good, discarded := DecodeFrames(buf)
	if good != 3 || discarded != 0 {
		t.Fatalf("good=%d discarded=%d, want 3/0", good, discarded)
	}
	if !reflect.DeepEqual(last, testState(3)) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", last, testState(3))
	}
}

// TestTruncationFallsBack tears the file at every byte offset: the
// decoder must never panic and must recover exactly the frames that are
// wholly present.
func TestTruncationFallsBack(t *testing.T) {
	one, err := AppendFrame(nil, testState(1))
	if err != nil {
		t.Fatal(err)
	}
	both, err := AppendFrame(append([]byte(nil), one...), testState(2))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(both); cut++ {
		last, good, _ := DecodeFrames(both[:cut])
		switch {
		case cut < len(one):
			if last != nil || good != 0 {
				t.Fatalf("cut %d: want no good frame, got %d", cut, good)
			}
		case cut < len(both):
			if good != 1 || last == nil || last.Seq != 1 {
				t.Fatalf("cut %d: want fallback to frame 1, got good=%d last=%+v", cut, good, last)
			}
		default:
			if good != 2 || last == nil || last.Seq != 2 {
				t.Fatalf("cut %d: want both frames, got good=%d", cut, good)
			}
		}
	}
}

// TestBitFlipFallsBack flips every byte of the newest frame in turn; the
// decoder must fall back to the older frame (or, if the flip leaves the
// newest frame intact-by-checksum, that cannot happen with CRC-32 over
// these sizes) and never trust torn data.
func TestBitFlipFallsBack(t *testing.T) {
	one, err := AppendFrame(nil, testState(1))
	if err != nil {
		t.Fatal(err)
	}
	both, err := AppendFrame(append([]byte(nil), one...), testState(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := len(one); i < len(both); i++ {
		mut := append([]byte(nil), both...)
		mut[i] ^= 0x40
		last, _, _ := DecodeFrames(mut)
		if last == nil {
			t.Fatalf("flip at %d: lost every frame including the intact first", i)
		}
		if last.Seq == 2 {
			// The flip must have hit a JSON byte in a way the CRC... no:
			// any payload flip breaks the CRC, any header flip breaks
			// framing. Seq 2 surviving means decode of the mutated frame
			// succeeded, which would mean a CRC collision.
			t.Fatalf("flip at %d: corrupt newest frame was trusted", i)
		}
	}
}

// TestCorruptMiddleFrameResyncs damages an interior frame; frames behind
// it must still decode via the magic resync scan.
func TestCorruptMiddleFrameResyncs(t *testing.T) {
	var buf []byte
	var err error
	var ends []int
	for seq := uint64(1); seq <= 3; seq++ {
		buf, err = AppendFrame(buf, testState(seq))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(buf))
	}
	mut := append([]byte(nil), buf...)
	mut[ends[0]+headerSize+5] ^= 0xFF // payload of frame 2
	last, good, discarded := DecodeFrames(mut)
	if last == nil || last.Seq != 3 {
		t.Fatalf("resync failed: last=%+v", last)
	}
	if good != 2 || discarded == 0 {
		t.Fatalf("good=%d discarded=%d, want 2 good and >0 discarded", good, discarded)
	}
}

func TestDuplicateFramesTakeNewest(t *testing.T) {
	frame, err := AppendFrame(nil, testState(5))
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat(frame, 3)
	last, good, discarded := DecodeFrames(buf)
	if good != 3 || discarded != 0 || last == nil || last.Seq != 5 {
		t.Fatalf("duplicates: good=%d discarded=%d last=%+v", good, discarded, last)
	}
}

func TestUnknownSchemaDiscarded(t *testing.T) {
	s := testState(1)
	s.Schema = StateSchema + 99
	buf, err := AppendFrame(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	last, good, discarded := DecodeFrames(buf)
	if last != nil || good != 0 || discarded == 0 {
		t.Fatalf("unknown schema trusted: good=%d discarded=%d", good, discarded)
	}
}

func TestGarbageFileIsFreshStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.ck")
	if err := os.WriteFile(path, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil || st != nil {
		t.Fatalf("garbage file: st=%v err=%v, want nil/nil", st, err)
	}
	if st, err := Load(filepath.Join(dir, "missing.ck")); err != nil || st != nil {
		t.Fatalf("missing file: st=%v err=%v, want nil/nil", st, err)
	}
}

func TestWriterKeepsHistoryAndLoadsNewest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ck")
	w := &writer{path: path}
	for seq := uint64(1); seq <= keepFrames+3; seq++ {
		st := testState(0) // write stamps Seq itself
		st.Done = []Range{{Lo: 500, Hi: 500 + int64(seq)}}
		if err := w.write(st); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last, good, discarded := DecodeFrames(data)
	if good != keepFrames || discarded != 0 {
		t.Fatalf("good=%d discarded=%d, want %d/0", good, discarded, keepFrames)
	}
	if last.Seq != keepFrames+3 || last.Done[0].Hi != 500+keepFrames+3 {
		t.Fatalf("newest frame wrong: %+v", last)
	}
	// Corrupt the newest frame on disk: Load must fall back to the one
	// before it.
	mut := append([]byte(nil), data...)
	mut[len(mut)-3] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Seq != keepFrames+2 {
		t.Fatalf("fallback frame wrong: %+v", st)
	}
}

func TestCampaignStateRoundTrip(t *testing.T) {
	s := &State{
		Schema: StateSchema, Kind: "campaign", Shards: 2, Shard: 1,
		Total: 10, Window: Range{Lo: 5, Hi: 10},
		Done: []Range{{Lo: 5, Hi: 7}},
		Records: []resil.RunRecord{
			{Index: 5, Seed: 42, Faults: "cut(a->b)", TAT: 123, Coverage: 0.875, VectorsCovered: 7, VectorsTotal: 8, Untestable: []string{"X"}},
			{Index: 6, Seed: 42, Faults: "opaque(X)", Err: "boom"},
		},
	}
	buf, err := AppendFrame(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	last, good, _ := DecodeFrames(buf)
	if good != 1 || !reflect.DeepEqual(last, s) {
		t.Fatalf("campaign state mismatch:\n got %+v\nwant %+v", last, s)
	}
}

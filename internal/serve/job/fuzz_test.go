package job

import (
	"encoding/json"
	"testing"

	"repro/internal/flowcmd"
	"repro/internal/soc"
	"repro/internal/systems"
)

// FuzzJobSpec throws arbitrary bytes at the daemon's admission decoder:
// the JSON spec layer and, through ChipSpec validation, the chip-script
// front door. Whatever arrives on the wire, DecodeSpec must not panic,
// and any spec it accepts must survive a marshal/decode round trip with
// a stable chip identity — the property the journal and the flow cache
// both key on.
func FuzzJobSpec(f *testing.F) {
	seed := func(s Spec) {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Valid specs over every chip source: the paper's two systems as
	// embedded chip scripts, the fixed System index, and socgen params.
	for i, ch := range []*soc.Chip{systems.System1(), systems.System2()} {
		script := flowcmd.FormatChipScript(ch, nil)
		seed(Spec{Type: TypeEvaluate, Chip: flowcmd.ChipSpec{Script: script}})
		seed(Spec{
			Type: TypeCampaign, Chip: flowcmd.ChipSpec{Script: script},
			Shards: 2, Runs: 8, SetSize: 2, Seed: int64(i),
		})
	}
	seed(Spec{Type: TypeEvaluate, Chip: flowcmd.ChipSpec{System: 1}, Faults: "alu1", Timeout: "30s"})
	// An explore spec as older clients sent it, with the retired
	// full_eval key that decoding ignores.
	f.Add([]byte(`{"type":"explore","chip":{"gen":{"seed":7,"cores":5,"topology":"random-dag"}},"shards":4,"max_points":100,"full_eval":true}`))
	// Malformed wire data.
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"type":"evaluate"}`))
	f.Add([]byte(`{"type":"evaluate","chip":{"system":1,"script":"chip x\n"}}`))
	f.Add([]byte(`{"type":"campaign","chip":{"gen":{"cores":-3}},"runs":1}`))
	f.Add([]byte(`{"type":"explore","chip":{"script":"chip t\ncore c\nu a add 4 2 4 1 1 0\nend\n"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		// Accepted specs must re-encode and re-decode to an equally valid
		// spec with the same chip identity.
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("round-tripped spec rejected: %v\n%s", err, enc)
		}
		if s.Chip.Key() != again.Chip.Key() {
			t.Fatalf("chip key unstable across round trip: %q vs %q", s.Chip.Key(), again.Chip.Key())
		}
		// Defaults resolution must be idempotent.
		once := s.withDefaults()
		if twice := once.withDefaults(); once != twice {
			t.Fatalf("withDefaults not idempotent: %+v vs %+v", once, twice)
		}
	})
}

// Package shard scales the two long-running SOCET workloads —
// explore.EnumerateCtx design-space sweeps and resil fault campaigns —
// across processes and machines, crash-safely.
//
// The work of a run is a global index space (design points in the
// deterministic enumeration order; fault-set indices of a campaign) that
// Plan partitions into N contiguous ranges, stable under any N. Each
// shard periodically persists an atomic, CRC-framed, schema-versioned
// checkpoint of its completed index ranges plus its partial result (the
// canonical partial Pareto front, or the completed campaign run records).
// A killed shard resumes from its newest good frame; a corrupt or torn
// checkpoint falls back to the last frame that checks out, or to an empty
// shard — it is survived, never trusted. Both workloads run through one
// loop over the plan; only the work a shard does and the merge differ.
// Each shard runs its window once: evaluations are deterministic, so a
// shard that fails would fail the same way again. A failed shard
// degrades the run to a partial result whose unfinished ranges are
// attributed explicitly; retrying is the caller's decision (socetd's
// lease pool, internal/serve/pool, does it).
//
// Merging is deterministic and compositional: dominance filtering is
// closed under partition (Pareto(A ∪ B) = Pareto(Pareto(A) ∪ Pareto(B))),
// and ties are broken canonically (smallest selection key), so the union
// of any shard partition — including one interrupted by SIGKILL and
// resumed — is bit-identical to the single-process result. Campaign run
// records are keyed by global index and independent per run, so their
// union is the single-process report. DESIGN.md §8 has the proof sketch.
package shard

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/explore"
)

// All selects every shard of the plan (the Options.Index wildcard).
const All = -1

// Plan partitions total work items into n near-equal contiguous ranges:
// shard i owns [i·total/n, (i+1)·total/n). Every index belongs to exactly
// one shard at any n, and the plan is a pure function of (total, n), so
// independently launched processes agree on it without coordination.
func Plan(total int64, n int) []Range {
	if n < 1 {
		n = 1
	}
	out := make([]Range, n)
	for i := 0; i < n; i++ {
		out[i] = Range{Lo: total * int64(i) / int64(n), Hi: total * int64(i+1) / int64(n)}
	}
	return out
}

// coalesce turns a completed-index set into sorted disjoint ranges.
func coalesce(done map[int64]struct{}, prior []Range) []Range {
	idx := make([]int64, 0, len(done))
	for i := range done {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	var out []Range
	for _, i := range idx {
		if n := len(out); n > 0 && out[n-1].Hi == i {
			out[n-1].Hi = i + 1
			continue
		}
		out = append(out, Range{Lo: i, Hi: i + 1})
	}
	out = append(out, prior...)
	return normalize(out)
}

// normalize sorts ranges and merges overlapping or adjacent ones.
func normalize(rs []Range) []Range {
	var in []Range
	for _, r := range rs {
		if r.Len() > 0 {
			in = append(in, r)
		}
	}
	sort.Slice(in, func(a, b int) bool {
		if in[a].Lo != in[b].Lo {
			return in[a].Lo < in[b].Lo
		}
		return in[a].Hi < in[b].Hi
	})
	var out []Range
	for _, r := range in {
		if n := len(out); n > 0 && r.Lo <= out[n-1].Hi {
			if r.Hi > out[n-1].Hi {
				out[n-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// inRanges reports whether sorted disjoint rs contain i.
func inRanges(rs []Range, i int64) bool {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case i < rs[mid].Lo:
			hi = mid
		case i >= rs[mid].Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// subtract returns the parts of window not covered by sorted disjoint done.
func subtract(window Range, done []Range) []Range {
	var out []Range
	lo := window.Lo
	for _, d := range done {
		if d.Hi <= lo {
			continue
		}
		if d.Lo >= window.Hi {
			break
		}
		if d.Lo > lo {
			out = append(out, Range{Lo: lo, Hi: min64(d.Lo, window.Hi)})
		}
		if d.Hi > lo {
			lo = d.Hi
		}
	}
	if lo < window.Hi {
		out = append(out, Range{Lo: lo, Hi: window.Hi})
	}
	return out
}

func countRanges(rs []Range) int64 {
	var n int64
	for _, r := range rs {
		n += r.Len()
	}
	return n
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// FrontPoint is the compact, serializable form of one design point on a
// partial Pareto front: the selection and the two objective values. It
// deliberately drops the *core.Evaluation — a checkpointed or merged
// front carries outcomes, not live schedules.
type FrontPoint struct {
	Selection map[string]int `json:"sel"`
	Cells     int            `json:"cells"`
	TAT       int            `json:"tat"`
}

// FromPoint compresses an explored point.
func FromPoint(p explore.Point) FrontPoint {
	return FrontPoint{Selection: p.Selection, Cells: p.ChipCells, TAT: p.TAT}
}

// Label formats the selection compactly, as explore.Point.Label does.
func (p FrontPoint) Label() string {
	return explore.Point{Selection: p.Selection}.Label()
}

// key is the canonical selection signature used as the deterministic
// tie-break among points with equal (Cells, TAT).
func (p FrontPoint) key() string {
	names := make([]string, 0, len(p.Selection))
	for n := range p.Selection {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d;", n, p.Selection[n])
	}
	return b.String()
}

// CanonFront reduces points to the canonical Pareto front: sorted by
// (Cells, TAT, selection key), dominated points dropped, and exactly one
// representative — the smallest selection key — kept per front corner.
// Canonicalizing makes dominance filtering compositional under any
// partition of the points: CanonFront(A ∪ B) ==
// CanonFront(CanonFront(A) ∪ CanonFront(B)), bit for bit.
func CanonFront(points []FrontPoint) []FrontPoint {
	sorted := make([]FrontPoint, len(points))
	copy(sorted, points)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Cells != sorted[j].Cells {
			return sorted[i].Cells < sorted[j].Cells
		}
		if sorted[i].TAT != sorted[j].TAT {
			return sorted[i].TAT < sorted[j].TAT
		}
		return sorted[i].key() < sorted[j].key()
	})
	var out []FrontPoint
	best := int(^uint(0) >> 1)
	for _, p := range sorted {
		if p.TAT < best {
			best = p.TAT
			out = append(out, p)
		}
	}
	return out
}

// MergeFronts combines partial fronts from any shard partition into the
// canonical front of their union.
func MergeFronts(fronts ...[]FrontPoint) []FrontPoint {
	var all []FrontPoint
	for _, f := range fronts {
		all = append(all, f...)
	}
	return CanonFront(all)
}

// Options configures a sharded run. The zero value is a single shard
// covering everything, unscheckpointed — identical to the plain in-process
// workload.
type Options struct {
	// Shards is the partition width N (minimum 1).
	Shards int
	// Index selects which shard this process runs: 0..Shards-1, or All
	// (-1) to run every shard in this process — which doubles as the
	// merge step, since shards whose checkpoints are already complete
	// re-evaluate nothing.
	Index int
	// Checkpoint is the checkpoint path prefix (see CheckpointPath);
	// empty disables checkpointing.
	Checkpoint string
	// Resume loads each shard's checkpoint before running and skips the
	// work it records. Without Resume an existing checkpoint is
	// overwritten.
	Resume bool
	// Every is the minimum interval between periodic checkpoint writes
	// (default 5s). A final checkpoint is always written when the shard
	// stops, however it stops.
	Every time.Duration
	// Workers bounds each shard's evaluation worker pool (explore only).
	Workers int
	// MaxPoints caps the global enumeration space exactly as
	// explore.Options.MaxPoints does (explore only).
	MaxPoints int
	// OnProgress, when non-nil, is called after every completed work
	// item (design point or campaign run) — the lease heartbeat hook: a
	// shard silent past its lease TTL is presumed dead by the daemon's
	// coordinator. May be called concurrently from evaluation workers.
	OnProgress func()
}

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Every <= 0 {
		o.Every = 5 * time.Second
	}
	return o
}

func (o Options) validate() error {
	if o.Index != All && (o.Index < 0 || o.Index >= o.Shards) {
		return fmt.Errorf("shard: index %d out of range for %d shards", o.Index, o.Shards)
	}
	return nil
}

// Flags is the CLI surface of a sharded run, shared by cmd/tradeoff and
// cmd/compare.
type Flags struct {
	shards     *int
	index      *int
	checkpoint *string
	resume     *bool
	every      *time.Duration
}

// AddFlags registers -shards, -shard-index, -checkpoint, -resume and
// -checkpoint-every on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		shards:     fs.Int("shards", 1, "partition the run into `n` deterministic shards"),
		index:      fs.Int("shard-index", All, "run only shard `i` (0-based); -1 runs and merges every shard in this process"),
		checkpoint: fs.String("checkpoint", "", "checkpoint path `prefix`; each shard writes prefix.shard<i>-of-<n>.ck"),
		resume:     fs.Bool("resume", false, "resume from existing checkpoints, skipping completed work"),
		every:      fs.Duration("checkpoint-every", 5*time.Second, "minimum interval between periodic checkpoint writes"),
	}
}

// Active reports whether any shard flag asks for the sharded path.
func (fl *Flags) Active() bool {
	return *fl.shards > 1 || *fl.index != All || *fl.checkpoint != "" || *fl.resume
}

// Options assembles the flag values (workload options are merged in by
// the caller).
func (fl *Flags) Options() Options {
	return Options{
		Shards:     *fl.shards,
		Index:      *fl.index,
		Checkpoint: *fl.checkpoint,
		Resume:     *fl.resume,
		Every:      *fl.every,
	}
}

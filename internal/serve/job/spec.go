// Package job is socetd's job layer: the JSON wire format for submitted
// work, the crash-safe journal that records every job's lifecycle, and
// the manager that admits jobs, runs them on a lease-based worker pool
// (internal/serve/pool) as checkpointed shard units, and merges their
// results deterministically.
//
// The design invariant the whole package leans on: every job's result
// is a pure function of its Spec. Chips resolve through
// flowcmd.ChipSpec (the same code path the CLIs use), work is
// partitioned by shard.Plan, progress is checkpointed with the
// length/CRC-framed atomic codec (internal/ckpt, via internal/shard),
// and merges are canonical — so a job that is interrupted by SIGKILL,
// resumed after restart, executed twice because a lease expired, or
// split across any number of workers converges to the byte-identical
// result text a single uninterrupted process would have produced.
package job

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/flowcmd"
)

// Type enumerates what a job runs.
const (
	// TypeEvaluate runs the flow once (optionally on a fault-damaged
	// chip) and reports the chip-level bottom line.
	TypeEvaluate = "evaluate"
	// TypeCampaign runs a seeded random fault-injection campaign.
	TypeCampaign = "campaign"
	// TypeExplore sweeps the design space and reports the Pareto front.
	TypeExplore = "explore"
)

// SpecMaxScript bounds the embedded chip script a spec may carry.
const SpecMaxScript = 1 << 18

// Spec is the wire format of one job: what to run, on which chip, split
// how. It is carried as JSON over the daemon API and inside the journal.
type Spec struct {
	Type string           `json:"type"`
	Chip flowcmd.ChipSpec `json:"chip"`

	// Shards partitions campaign and explore work into leased units
	// (default 1). More shards mean finer-grained crash recovery and
	// more parallelism, at more checkpoint files.
	Shards int `json:"shards,omitempty"`

	// Explore jobs.
	MaxPoints int `json:"max_points,omitempty"`

	// Campaign jobs: Runs fault sets of SetSize faults from Seed.
	Runs    int   `json:"runs,omitempty"`
	SetSize int   `json:"set_size,omitempty"`
	Seed    int64 `json:"seed,omitempty"`

	// Evaluate jobs: optional fault list (resil.ParseFaults syntax) to
	// inject before evaluating.
	Faults string `json:"faults,omitempty"`

	// Timeout is the per-job deadline as a Go duration string
	// ("30s", "5m"); empty uses the daemon default.
	Timeout string `json:"timeout,omitempty"`
}

// MaxShards bounds Spec.Shards: each shard is a checkpoint file and a
// pool unit, so the partition width is an admission-controlled resource.
const MaxShards = 64

// DecodeSpec parses and validates a JSON job spec. It never panics on
// any input (FuzzJobSpec holds it to that).
func DecodeSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("job: bad spec JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec without building the chip or running
// anything; a spec that validates is safe to admit.
func (s *Spec) Validate() error {
	switch s.Type {
	case TypeEvaluate, TypeCampaign, TypeExplore:
	default:
		return fmt.Errorf("job: type must be %q, %q or %q, got %q", TypeEvaluate, TypeCampaign, TypeExplore, s.Type)
	}
	if len(s.Chip.Script) > SpecMaxScript {
		return fmt.Errorf("job: chip script exceeds %d bytes", SpecMaxScript)
	}
	if s.Chip.Gen != nil && (s.Chip.Gen.Cores < 0 || s.Chip.Gen.Cores > 64) {
		return fmt.Errorf("job: gen cores must be 0..64, got %d", s.Chip.Gen.Cores)
	}
	if err := s.Chip.Validate(); err != nil {
		return err
	}
	if s.Shards < 0 || s.Shards > MaxShards {
		return fmt.Errorf("job: shards must be 0..%d, got %d", MaxShards, s.Shards)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("job: max_points must be >= 0")
	}
	if s.Timeout != "" {
		d, err := time.ParseDuration(s.Timeout)
		if err != nil || d < 0 {
			return fmt.Errorf("job: bad timeout %q", s.Timeout)
		}
	}
	switch s.Type {
	case TypeCampaign:
		if s.Runs < 1 || s.Runs > 1<<20 {
			return fmt.Errorf("job: campaign runs must be 1..2^20, got %d", s.Runs)
		}
		if s.SetSize < 0 || s.SetSize > 16 {
			return fmt.Errorf("job: campaign set_size must be 0..16, got %d", s.SetSize)
		}
		if s.Faults != "" {
			return fmt.Errorf("job: faults applies to evaluate jobs only")
		}
	case TypeExplore:
		if s.Runs != 0 || s.SetSize != 0 || s.Seed != 0 {
			return fmt.Errorf("job: runs/set_size/seed apply to campaign jobs only")
		}
		if s.Faults != "" {
			return fmt.Errorf("job: faults applies to evaluate jobs only")
		}
	case TypeEvaluate:
		if s.Runs != 0 || s.SetSize != 0 || s.Seed != 0 {
			return fmt.Errorf("job: runs/set_size/seed apply to campaign jobs only")
		}
		if s.Shards > 1 {
			return fmt.Errorf("job: evaluate jobs are not sharded")
		}
	}
	return nil
}

// withDefaults resolves optional fields (callers keep the wire form
// canonical; execution uses the resolved copy).
func (s Spec) withDefaults() Spec {
	if s.Shards < 1 {
		s.Shards = 1
	}
	if s.Type == TypeCampaign && s.SetSize == 0 {
		s.SetSize = 2
	}
	return s
}

// timeout returns the job deadline, falling back to def. Validate has
// already vetted the string.
func (s Spec) timeout(def time.Duration) time.Duration {
	if s.Timeout == "" {
		return def
	}
	d, err := time.ParseDuration(s.Timeout)
	if err != nil {
		return def
	}
	return d
}

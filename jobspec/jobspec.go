// Package jobspec is the one description of an FG sort job — the paper's
// Figure 8 machine and workload plus the resilience and tuning knobs —
// shared by fgd's job API, soak's scenario files, and the fgsort and fgexp
// flags: the schema, its one strict decoder and its one validator.
// internal/harness compiles a Spec onto harness.Params.
package jobspec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/workload"
)

// A Spec is one sort job: the program, the workload shape, and the per-job
// resilience and tuning options. Zero fields mean "the usual" (see the
// defaulted accessors).
type Spec struct {
	// Name is an optional label, echoed in status and list views.
	Name string `json:"name,omitempty"`

	// Program is the sorting program to run: "dsort", "csort", "csort4",
	// or "dsort-linear".
	Program string `json:"program"`
	// Nodes is the cluster size the job runs on.
	Nodes int `json:"nodes"`
	// Records is the cluster-wide record count N.
	Records int64 `json:"records"`
	// RecordSize is bytes per record (>= 16). Zero defaults to 16.
	RecordSize int `json:"record_size,omitempty"`
	// ColumnsPerNode fixes the csort geometry and the PDM block. Zero
	// defaults to 1.
	ColumnsPerNode int `json:"columns_per_node,omitempty"`
	// Distribution names the key distribution (workload.ParseDistribution
	// spelling: "uniform", "poisson", "skew-zipf", ...). Empty defaults to
	// "uniform".
	Distribution string `json:"distribution,omitempty"`
	// Seed makes the workload deterministic. Zero defaults to 1.
	Seed int64 `json:"seed,omitempty"`

	// Parallelism is the intra-buffer kernel worker knob (0 = all cores).
	Parallelism int `json:"parallelism,omitempty"`
	// Buffers overrides each pipeline's circulating buffer pool (0 keeps
	// the program default).
	Buffers int `json:"buffers,omitempty"`
	// AutoTune lets a run-time tuner adjust kernel workers and circulating
	// buffers.
	AutoTune bool `json:"autotune,omitempty"`

	// SkipVerify skips the output verification pass. The default verifies:
	// "done" means "sorted, striped, and a permutation of the input", not
	// just "the passes ran".
	SkipVerify bool `json:"skip_verify,omitempty"`
	// TimeoutSec bounds the job's wall clock; past it the job is aborted.
	// Zero defaults to 120.
	TimeoutSec int `json:"timeout_sec,omitempty"`

	// Checkpoint enables pass-level checkpointing, so a supervised retry
	// resumes at the last pass boundary instead of starting over.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// MaxAttempts is the supervised attempt budget (0 or 1 = run once):
	// aborts, comm errors and peer death are retried up to this many total
	// attempts; panics and verification failures are not.
	MaxAttempts int `json:"max_attempts,omitempty"`

	// Disk overrides the simulated per-node disk model.
	Disk *Disk `json:"disk,omitempty"`

	// Fault schedules one deliberate misfortune inside the job — the seam
	// fgd's isolation tests drive.
	Fault *Fault `json:"fault,omitempty"`
}

// Disk mirrors pdm.DiskModel in JSON-friendly units.
type Disk struct {
	SeekLatencyUS  int     `json:"seek_latency_us"`
	BytesPerSecond float64 `json:"bytes_per_second"`
}

// Model converts the spec to the simulator's disk model.
func (d Disk) Model() pdm.DiskModel {
	return pdm.DiskModel{
		SeekLatency:    time.Duration(d.SeekLatencyUS) * time.Microsecond,
		BytesPerSecond: d.BytesPerSecond,
	}
}

// Fault kinds a spec may schedule.
const (
	// FaultPanicOp panics on rank Rank's OpCount-th disk operation
	// (optionally scoped to File: "input", "output", ...). The panic is
	// raised on a stage goroutine, so it must surface as a *fg.PanicError
	// naming the stage and fail only that job.
	FaultPanicOp = "panic-op"
	// FaultDiskErr fails rank Rank's OpCount-th disk operation with an
	// injected error instead of panicking.
	FaultDiskErr = "disk-err"
)

// A Fault is one scheduled in-job misfortune.
type Fault struct {
	// Kind selects the fault (the Fault* constants).
	Kind string `json:"kind"`
	// Rank is the afflicted node.
	Rank int `json:"rank"`
	// OpCount is the 1-based disk-operation index the fault fires on.
	OpCount int64 `json:"op_count"`
	// File scopes the fault to one job file name; empty means any file.
	File string `json:"file,omitempty"`
}

// programs is the set of sorting programs a spec may name.
var programs = map[string]bool{
	"dsort": true, "csort": true, "csort4": true, "dsort-linear": true,
}

// Decode reads one document of type T from JSON, strictly: unknown
// fields, trailing data, and a failing Validate are all errors; what names
// the document in them. It never panics, whatever the bytes — specs cross
// the trust boundary between a client (or a repo) and the code that runs
// them, and FuzzJobSpec holds Decode to that.
func Decode[T interface{ Validate() error }](r io.Reader, what string) (T, error) {
	var doc, zero T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return zero, fmt.Errorf("jobspec: decode %s: %w", what, err)
	}
	if dec.More() {
		return zero, fmt.Errorf("jobspec: trailing data after %s document", what)
	}
	if err := doc.Validate(); err != nil {
		return zero, err
	}
	return doc, nil
}

// Validate checks the spec's internal consistency: bounds that keep the
// job's sizes representable, and a geometry every program can run.
func (s Spec) Validate() error {
	if !programs[s.Program] {
		return fmt.Errorf("jobspec: unknown program %q", s.Program)
	}
	if s.Nodes < 2 {
		return fmt.Errorf("jobspec: need at least 2 nodes, got %d", s.Nodes)
	}
	if s.Nodes > 64 {
		return fmt.Errorf("jobspec: %d nodes is past the simulated-cluster bound of 64", s.Nodes)
	}
	if s.Records <= 0 {
		return fmt.Errorf("jobspec: non-positive record count %d", s.Records)
	}
	if s.Records > 1<<40 {
		return fmt.Errorf("jobspec: %d records is past the sanity bound of 2^40", s.Records)
	}
	if s.RecordSize != 0 && s.RecordSize < 16 {
		return fmt.Errorf("jobspec: record size %d below minimum 16", s.RecordSize)
	}
	if s.RecordSize > 1<<20 {
		return fmt.Errorf("jobspec: record size %d is past the sanity bound of 1 MiB", s.RecordSize)
	}
	if s.Parallelism < 0 || s.Buffers < 0 || s.Seed < 0 ||
		s.TimeoutSec < 0 || s.MaxAttempts < 0 || s.ColumnsPerNode < 0 {
		return errors.New("jobspec: negative scalar in job spec")
	}
	// cpn <= Records keeps Nodes*cpn from overflowing.
	if cpn := int64(s.EffectiveColumnsPerNode()); cpn > s.Records || s.Records%(int64(s.Nodes)*cpn) != 0 {
		return fmt.Errorf("jobspec: %d records do not divide into %d nodes x %d columns", s.Records, s.Nodes, cpn)
	}
	if s.Distribution != "" {
		if _, err := workload.ParseDistribution(s.Distribution); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	if d := s.Disk; d != nil && (d.SeekLatencyUS < 0 || d.BytesPerSecond < 0) {
		return errors.New("jobspec: negative disk model field")
	}
	if f := s.Fault; f != nil {
		if f.Kind != FaultPanicOp && f.Kind != FaultDiskErr {
			return fmt.Errorf("jobspec: unknown fault kind %q", f.Kind)
		}
		if f.Rank < 0 || f.Rank >= s.Nodes {
			return fmt.Errorf("jobspec: fault rank %d outside [0, %d)", f.Rank, s.Nodes)
		}
		if f.OpCount <= 0 {
			return errors.New("jobspec: fault op_count must be >= 1")
		}
	}
	return nil
}

// Defaulted accessors: zero values in the JSON mean "the usual".

func (s Spec) EffectiveRecordSize() int     { return defaulted(s.RecordSize, 16) }
func (s Spec) EffectiveColumnsPerNode() int { return defaulted(s.ColumnsPerNode, 1) }
func (s Spec) EffectiveMaxAttempts() int    { return defaulted(s.MaxAttempts, 1) }
func (s Spec) EffectiveSeed() int64         { return defaulted(s.Seed, 1) }

// Timeout is the job's wall-clock bound.
func (s Spec) Timeout() time.Duration {
	return time.Duration(defaulted(s.TimeoutSec, 120)) * time.Second
}

// Dist is the key distribution; a validated spec always names a known one.
func (s Spec) Dist() workload.Distribution {
	if s.Distribution == "" {
		return workload.Uniform
	}
	d, _ := workload.ParseDistribution(s.Distribution)
	return d
}

// Bytes is the job's data volume.
func (s Spec) Bytes() int64 { return s.Records * int64(s.EffectiveRecordSize()) }

func defaulted[T int | int64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

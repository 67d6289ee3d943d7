package service

import (
	"fmt"
	"time"

	"github.com/fg-go/fg/jobspec"
)

// The daemon's job schema is package jobspec's; these aliases keep the
// service API's names.
type (
	JobSpec   = jobspec.Spec
	DiskSpec  = jobspec.Disk
	FaultSpec = jobspec.Fault
)

// timeout returns the job's effective running-time bound under the
// daemon's per-job runtime quota.
func (l Limits) timeout(s JobSpec) time.Duration {
	if max := time.Duration(l.MaxRunSeconds) * time.Second; max > 0 && s.Timeout() > max {
		return max
	}
	return s.Timeout()
}

// Limits are the daemon's per-job admission quotas. Zero fields mean
// "unlimited"; a spec exceeding any set limit is rejected at submit time
// with a quota error (HTTP 403), so an over-ask fails loudly instead of
// starving its neighbors.
type Limits struct {
	// MaxNodes bounds a job's simulated cluster size.
	MaxNodes int `json:"max_nodes,omitempty"`
	// MaxBytes bounds a job's data volume (records × record size) — the
	// per-job disk quota, since every simulated disk lives in the daemon's
	// memory.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// MaxWorkers bounds a job's intra-buffer kernel parallelism: an
	// explicit ask above it is rejected, and the "all cores" default (and
	// the auto-tuner's upper bound) is clamped to it.
	MaxWorkers int `json:"max_workers,omitempty"`
	// MaxBuffers bounds a job's explicit per-pipeline buffer pool.
	MaxBuffers int `json:"max_buffers,omitempty"`
	// MaxAttempts bounds a job's supervised attempt budget.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// MaxRunSeconds caps every job's running wall clock, whatever its spec
	// asks for.
	MaxRunSeconds int `json:"max_run_seconds,omitempty"`
}

// A QuotaError reports which limit a spec exceeded; the HTTP layer maps it
// to 403.
type QuotaError struct{ msg string }

func (e *QuotaError) Error() string { return e.msg }

func quotaErrf(format string, args ...any) error {
	return &QuotaError{msg: fmt.Sprintf("service: quota: "+format, args...)}
}

// Admit checks a valid spec against the quotas.
func (l Limits) Admit(s JobSpec) error {
	if l.MaxNodes > 0 && s.Nodes > l.MaxNodes {
		return quotaErrf("%d nodes exceeds the per-job limit of %d", s.Nodes, l.MaxNodes)
	}
	if l.MaxBytes > 0 && s.Bytes() > l.MaxBytes {
		return quotaErrf("%d bytes of data exceeds the per-job limit of %d", s.Bytes(), l.MaxBytes)
	}
	if l.MaxWorkers > 0 && s.Parallelism > l.MaxWorkers {
		return quotaErrf("parallelism %d exceeds the per-job limit of %d", s.Parallelism, l.MaxWorkers)
	}
	if l.MaxBuffers > 0 && s.Buffers > l.MaxBuffers {
		return quotaErrf("%d buffers exceeds the per-job limit of %d", s.Buffers, l.MaxBuffers)
	}
	if l.MaxAttempts > 0 && s.EffectiveMaxAttempts() > l.MaxAttempts {
		return quotaErrf("%d attempts exceeds the per-job limit of %d", s.EffectiveMaxAttempts(), l.MaxAttempts)
	}
	return nil
}

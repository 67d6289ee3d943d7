// Package soak is the cluster-scale stress harness: it spawns N real FG
// sort processes over the TCP transport, drives them with concurrent
// workloads from package workload, applies declarative fault and churn
// plans compiled onto internal/faultinject hooks (plus real SIGKILL and
// process restart at the driver), verifies every run collectively with
// check.DistributedOutput, and emits a structured per-run report whose
// benchmark-shaped lines feed the same BENCH_history.jsonl curve the
// kernel benchmarks accumulate. The paper's claim — that pipeline-visible
// structure lets FG overlap I/O, communication, and computation under real
// cluster conditions — is only testable under real cluster conditions:
// many processes, real sockets, and scheduled misfortune. This package is
// that proof system; cmd/fgsoak is its driver.
package soak

import (
	"embed"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"

	"github.com/fg-go/fg/jobspec"
)

//go:embed scenarios/*.json
var builtinFS embed.FS

// A Scenario is one declarative soak plan: a job spec — the cluster shape,
// the workload, the resilience configuration, in the same schema fgd
// accepts — plus what only a soak run has: trials, the failure detector,
// the telemetry plane, and the scheduled faults. Scenarios are checked into
// soak/scenarios/ as JSON and decoded strictly — an unknown field or an
// inconsistent plan is an error at load time, never a silent
// misconfiguration discovered mid-soak.
//
// Each of the spec's Nodes runs as its own OS process. Name is required,
// and the job-only fields fault, skip_verify and autotune are rejected:
// soak faults are the Faults schedule, and every soak run verifies.
type Scenario struct {
	jobspec.Spec

	// Description says what the scenario proves.
	Description string `json:"description,omitempty"`
	// Trials repeats the whole run (fresh processes each time) and reports
	// every trial; zero means one.
	Trials int `json:"trials,omitempty"`

	// Heartbeat configures the failure detector; required by scenarios
	// that kill ranks, optional otherwise.
	Heartbeat *HeartbeatSpec `json:"heartbeat,omitempty"`
	// Telemetry arms the cluster telemetry plane: every rank publishes its
	// record each interval toward rank 0, whose process serves the fleet
	// view the driver scrapes and asserts on (every live rank must show up
	// fresh at least once per trial).
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`

	// Faults is the scheduled misfortune, applied in addition to the
	// clean workload.
	Faults []Fault `json:"faults,omitempty"`
}

// HeartbeatSpec mirrors cluster.HealthConfig in milliseconds.
type HeartbeatSpec struct {
	IntervalMS     int `json:"interval_ms"`
	SuspectAfterMS int `json:"suspect_after_ms,omitempty"`
	DeadAfterMS    int `json:"dead_after_ms,omitempty"`
	StartupGraceMS int `json:"startup_grace_ms,omitempty"`
}

// TelemetrySpec mirrors cluster.TelemetryConfig in milliseconds. Rank 0 is
// always the aggregator: it is the rank the driver watches and the one rank
// a scenario may not kill.
type TelemetrySpec struct {
	IntervalMS   int `json:"interval_ms"`
	StaleAfterMS int `json:"stale_after_ms,omitempty"`
}

// Fault kinds. Each kind compiles onto a different layer of the fault
// machinery; see newFaultSet in worker.go for the mapping.
const (
	// FaultKillOp SIGKILLs rank Rank from inside, on the OpCount-th disk
	// operation touching File ("output", "input", or empty for any) —
	// deterministic mid-pass death, the internal/faultinject KillOn hook.
	FaultKillOp = "kill-op"
	// FaultKillAfter SIGKILLs rank Rank from outside (the driver) after
	// AfterMS of wall clock — asynchronous death, nothing in the victim
	// cooperates.
	FaultKillAfter = "kill-after"
	// FaultPartition simulates a flapping link to rank Rank: every process
	// drops frames to and from it for DownMS, heals for UpMS, Cycles
	// times, starting after AfterMS. DownMS below the dead threshold
	// proves churn does not kill; above it proves sustained partitions do.
	FaultPartition = "partition"
	// FaultDiskSlow adds LatencyUS to every disk operation on rank Rank
	// (-1 for all ranks), optionally scoped to File.
	FaultDiskSlow = "disk-slow"
	// FaultNetDrop drops the first DropN outgoing data frames of at least
	// MinBytes payload from rank Rank; the resulting CommError fails the
	// attempt and the supervisor's retry must absorb it.
	FaultNetDrop = "net-drop"
)

// A Fault is one scheduled misfortune in a scenario plan.
type Fault struct {
	// Kind selects the fault mechanism (the Fault* constants).
	Kind string `json:"kind"`
	// Rank is the afflicted rank; -1 means every rank where the kind
	// supports it (disk-slow only).
	Rank int `json:"rank"`

	// OpCount is the 1-based disk-operation index a kill-op dies on.
	OpCount int64 `json:"op_count,omitempty"`
	// File scopes kill-op and disk-slow to one job file name ("output",
	// "input"); empty means any file.
	File string `json:"file,omitempty"`

	// AfterMS delays kill-after and partition faults from trial start.
	AfterMS int `json:"after_ms,omitempty"`

	// Restart makes the driver spawn a replacement process for a killed
	// rank; RestartDelayMS bounds how long it waits for a surviving
	// supervisor to report the failed attempt before spawning anyway.
	Restart        bool `json:"restart,omitempty"`
	RestartDelayMS int  `json:"restart_delay_ms,omitempty"`

	// DownMS, UpMS, Cycles shape a partition fault's churn.
	DownMS int `json:"down_ms,omitempty"`
	UpMS   int `json:"up_ms,omitempty"`
	Cycles int `json:"cycles,omitempty"`

	// LatencyUS is disk-slow's added per-operation latency.
	LatencyUS int `json:"latency_us,omitempty"`

	// DropN and MinBytes shape a net-drop fault.
	DropN    int `json:"drop_n,omitempty"`
	MinBytes int `json:"min_bytes,omitempty"`
}

// DecodeScenario reads one scenario from JSON with jobspec's strict
// decoder. It never panics, whatever the bytes — the property
// FuzzScenarioPlan holds it to, because scenario files cross the trust
// boundary between a repo and its CI.
func DecodeScenario(r io.Reader) (Scenario, error) {
	s, err := jobspec.Decode[Scenario](r, "scenario")
	if err != nil {
		return Scenario{}, fmt.Errorf("soak: %w", err)
	}
	return s, nil
}

// Validate checks the plan's internal consistency: the job spec's own
// rules, then the soak-only fields.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return errors.New("soak: scenario needs a name")
	}
	if strings.ContainsAny(s.Name, "/ \t\n") {
		return fmt.Errorf("soak: scenario name %q may not contain slashes or spaces", s.Name)
	}
	if err := s.Spec.Validate(); err != nil {
		return fmt.Errorf("soak: scenario %s: %w", s.Name, err)
	}
	if s.Fault != nil || s.SkipVerify || s.AutoTune {
		return fmt.Errorf("soak: scenario %s: fault, skip_verify and autotune are job-only fields", s.Name)
	}
	if s.Trials < 0 {
		return fmt.Errorf("soak: scenario %s: negative trials", s.Name)
	}
	if h := s.Heartbeat; h != nil {
		if h.IntervalMS <= 0 {
			return fmt.Errorf("soak: scenario %s: heartbeat interval must be positive", s.Name)
		}
		if h.SuspectAfterMS < 0 || h.DeadAfterMS < 0 || h.StartupGraceMS < 0 {
			return fmt.Errorf("soak: scenario %s: negative heartbeat threshold", s.Name)
		}
	}
	if tl := s.Telemetry; tl != nil {
		if tl.IntervalMS <= 0 {
			return fmt.Errorf("soak: scenario %s: telemetry interval must be positive", s.Name)
		}
		if tl.StaleAfterMS < 0 {
			return fmt.Errorf("soak: scenario %s: negative telemetry stale_after_ms", s.Name)
		}
	}
	for i, f := range s.Faults {
		if err := s.validateFault(i, f); err != nil {
			return err
		}
	}
	return nil
}

func (s Scenario) validateFault(i int, f Fault) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("soak: scenario %s fault %d (%s): %s", s.Name, i, f.Kind, fmt.Sprintf(format, args...))
	}
	switch f.Kind {
	case FaultKillOp, FaultKillAfter, FaultPartition, FaultDiskSlow, FaultNetDrop:
	default:
		return bad("unknown fault kind")
	}
	if (f.Rank < 0 || f.Rank >= s.Nodes) && (f.Kind != FaultDiskSlow || f.Rank != -1) {
		return bad("rank %d outside [0, %d) (only disk-slow takes -1 for all)", f.Rank, s.Nodes)
	}
	switch {
	case f.Kind == FaultKillOp && f.OpCount <= 0:
		return bad("op_count must be >= 1")
	case f.Kind == FaultKillAfter && f.AfterMS <= 0:
		return bad("after_ms must be >= 1")
	case f.Kind == FaultPartition && (f.DownMS <= 0 || f.UpMS <= 0 || f.Cycles <= 0):
		return bad("down_ms, up_ms, and cycles must all be >= 1")
	case f.Kind == FaultDiskSlow && f.LatencyUS <= 0:
		return bad("latency_us must be >= 1")
	case f.Kind == FaultNetDrop && f.DropN <= 0:
		return bad("drop_n must be >= 1")
	case f.Kind == FaultNetDrop && f.MinBytes < 0:
		return bad("min_bytes must be >= 0")
	case f.Kind == FaultNetDrop && s.MaxAttempts <= 1:
		return bad("net-drop fails the attempt; max_attempts > 1 is required to absorb it")
	}
	if kills := f.Kind == FaultKillOp || f.Kind == FaultKillAfter; kills {
		if f.Rank == 0 {
			return bad("rank 0 is the driver's supervisor observer and may not be killed")
		}
		if s.MaxAttempts <= 1 {
			return bad("a kill fault needs max_attempts > 1 so survivors retry")
		}
		if s.Heartbeat == nil {
			return bad("a kill fault needs a heartbeat config so the death is detected")
		}
		if f.Restart && !s.Checkpoint {
			return bad("a restarted rank needs checkpoint: true to resume")
		}
	}
	return nil
}

func (s Scenario) trials() int { return max(s.Trials, 1) }

// LoadScenario reads a scenario from a file on disk.
func LoadScenario(p string) (Scenario, error) {
	f, err := os.Open(p)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	s, err := DecodeScenario(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", p, err)
	}
	return s, nil
}

// Builtin returns the checked-in scenario with the given name.
func Builtin(name string) (Scenario, error) {
	f, err := builtinFS.Open(path.Join("scenarios", name+".json"))
	if err != nil {
		return Scenario{}, fmt.Errorf("soak: no builtin scenario %q (have %s)", name, strings.Join(BuiltinNames(), ", "))
	}
	defer f.Close()
	s, err := DecodeScenario(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("builtin %s: %w", name, err)
	}
	if s.Name != name {
		return Scenario{}, fmt.Errorf("soak: builtin file %s.json declares name %q", name, s.Name)
	}
	return s, nil
}

// BuiltinNames lists the checked-in scenarios, sorted.
func BuiltinNames() []string {
	entries, err := fs.ReadDir(builtinFS, "scenarios")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

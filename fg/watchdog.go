package fg

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Progress watchdog. The failure mode that matters for a pipeline built to
// overlap high-latency operations is not a crash but a silent stall: one
// stage stops making progress and the whole network quietly serializes or
// deadlocks behind it. The watchdog samples every stage's round counter and
// queue occupancy on an interval; when no stage anywhere has completed a
// round for StallAfter, it assembles a StallReport — per-stage states,
// queue occupancies, the suspected culprit, and goroutine-dump excerpts
// filtered to this network's pprof labels — and fires OnStall.

// WatchdogConfig configures a network's progress watchdog (see
// Network.Watch and Observe.Watchdog).
type WatchdogConfig struct {
	// Interval is the sampling period; default 250ms. A stall is reported
	// within Interval of StallAfter elapsing.
	Interval time.Duration
	// StallAfter is how long the network may go with zero global progress
	// (no stage completing a round) before OnStall fires; default 10s. It
	// must comfortably exceed the longest legitimate single round — a slow
	// stage under StallAfter must not trigger.
	StallAfter time.Duration
	// OnStall receives the report, once per stall episode (the watchdog
	// re-arms if progress resumes). It runs on the watchdog goroutine; a
	// callback that blocks delays further sampling but nothing else.
	OnStall func(StallReport)
}

// Stage health classifications, the watchdog's refinement of StageState
// with round progress and position.
const (
	// HealthRunning: making progress, or parked shorter than the threshold.
	HealthRunning = "running"
	// HealthBlockedOnGet: parked in an accept, waiting for a buffer that is
	// not arriving.
	HealthBlockedOnGet = "blocked-on-get"
	// HealthBlockedOnPut: parked inside the stage function. Queues never
	// fill by construction (they are sized to the pool), so a stage stuck
	// "putting" is in truth stuck in the blocking operation its function
	// performs — a communication send into a full mailbox, a disk op, or a
	// deadlock — which is exactly the culprit shape.
	HealthBlockedOnPut = "blocked-on-put"
	// HealthStarved: blocked-on-get downstream of the culprit; idle only
	// because the culprit starves it.
	HealthStarved = "starved"
	// HealthDone: the stage consumed its caboose.
	HealthDone = "done"
	// HealthIdle: the network (or this stage) has not started.
	HealthIdle = "idle"
)

// StageHealth is one stage's classified state in a StallReport or status
// snapshot.
type StageHealth struct {
	Stage    string `json:"stage"`
	Pipeline string `json:"pipeline"`
	State    string `json:"state"` // one of the Health... constants
	Rounds   int64  `json:"rounds"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	// SlowPushes counts fast-path misses on the stage's input queue — each
	// one a breach of the sized-to-never-fill invariant.
	SlowPushes int64         `json:"slow_pushes,omitempty"`
	InState    time.Duration `json:"in_state_ns"` // time since the last state transition
	// Work and AcceptWait are the stage's totals so far (see StageStats):
	// the paper's work/wait split, carried so the document alone names
	// what governs the wall clock.
	Work       time.Duration `json:"work_ns"`
	AcceptWait time.Duration `json:"wait_ns"`
	// Utilization is Work/Wall, filled by the status endpoint (zero in
	// watchdog reports, where wall time is beside the point).
	Utilization float64 `json:"utilization,omitempty"`
}

// A StallReport describes a network that has made no progress for a while.
type StallReport struct {
	Network string `json:"network"`
	// At is when the watchdog detected the stall; it identifies the
	// episode (a network that recovers and stalls again reports anew).
	At time.Time `json:"at"`
	// Stalled is how long the network has gone with zero global progress.
	Stalled time.Duration `json:"stalled_ns"`
	// Culprit names the suspected stage: the blocked-on-put stage furthest
	// upstream (stuck inside a comm/disk op or deadlocked), or, when every
	// stage is blocked-on-get, the furthest-upstream one of those (its
	// input stopped arriving). Empty if nothing conclusive.
	Culprit         string `json:"culprit"`
	CulpritPipeline string `json:"culprit_pipeline,omitempty"`
	// Reason is a one-line explanation of why the culprit is suspected.
	Reason string        `json:"reason"`
	Stages []StageHealth `json:"stages"`
	// Goroutines holds the goroutine-dump stacks whose pprof labels name
	// this network — the stage goroutines' actual park sites.
	Goroutines string `json:"goroutines,omitempty"`
}

// String renders the report as a multi-line log message.
func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fg: network %q stalled for %v (no stage completed a round)\n",
		r.Network, r.Stalled.Round(time.Millisecond))
	if r.Culprit != "" {
		fmt.Fprintf(&b, "  suspected culprit: stage %q on %q — %s\n", r.Culprit, r.CulpritPipeline, r.Reason)
	} else if r.Reason != "" {
		fmt.Fprintf(&b, "  %s\n", r.Reason)
	}
	for _, s := range r.Stages {
		fill := fmt.Sprintf("%d", s.QueueLen)
		if s.QueueCap > 0 {
			fill = fmt.Sprintf("%d/%d", s.QueueLen, s.QueueCap)
		}
		fmt.Fprintf(&b, "  stage %-20s on %-20s %-14s rounds=%-6d queue=%-7s for %v",
			s.Stage, s.Pipeline, s.State, s.Rounds, fill, s.InState.Round(time.Millisecond))
		if s.SlowPushes > 0 {
			fmt.Fprintf(&b, " slow-pushes=%d", s.SlowPushes)
		}
		b.WriteString("\n")
	}
	if r.Goroutines != "" {
		fmt.Fprintf(&b, "  goroutines:\n%s\n", indent(r.Goroutines, "    "))
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

// classifyStages maps a snapshot onto the health taxonomy: a stage parked
// longer than stuckFor is blocked (on-get in an accept, on-put inside its
// function); shorter parks are normal flow and count as running.
func classifyStages(st NetworkStats, stuckFor time.Duration) []StageHealth {
	out := make([]StageHealth, len(st.Stages))
	for i, s := range st.Stages {
		h := StageHealth{
			Stage:      s.Stage,
			Pipeline:   s.Pipeline,
			Rounds:     s.Rounds,
			QueueLen:   s.QueueLen,
			QueueCap:   s.QueueCap,
			SlowPushes: s.SlowPushes,
			InState:    s.InState,
			Work:       s.Work,
			AcceptWait: s.AcceptWait,
		}
		switch s.State {
		case StageIdle:
			h.State = HealthIdle
		case StageDone:
			h.State = HealthDone
		case StageWorking:
			if s.InState >= stuckFor {
				h.State = HealthBlockedOnPut
			} else {
				h.State = HealthRunning
			}
		case StageAccepting:
			if s.InState >= stuckFor {
				h.State = HealthBlockedOnGet
			} else {
				h.State = HealthRunning
			}
		default:
			h.State = HealthRunning
		}
		out[i] = h
	}
	return out
}

// diagnose picks the culprit among classified stages (which are in
// upstream-to-downstream order within each pipeline) and refines
// blocked-on-get stages downstream of it to starved. It returns the
// culprit's index, or -1.
func diagnose(hs []StageHealth) (int, string) {
	culprit := -1
	reason := ""
	for i, h := range hs {
		if h.State == HealthBlockedOnPut {
			culprit = i
			reason = "parked inside its stage function — a blocking communication or disk operation that is not completing, or a deadlock"
			// Refine with queue occupancy: if the stage's downstream queue on
			// the same pipeline is brim full, the stage is in truth stuck in
			// the convey — a breach of the sized-to-never-fill invariant —
			// not in its own I/O.
			for j := i + 1; j < len(hs); j++ {
				if hs[j].Pipeline != h.Pipeline {
					continue
				}
				if hs[j].QueueCap > 0 && hs[j].QueueLen >= hs[j].QueueCap {
					reason = fmt.Sprintf(
						"blocked conveying into stage %q, whose input queue is full (%d/%d) — the sized-to-never-fill invariant is breached",
						hs[j].Stage, hs[j].QueueLen, hs[j].QueueCap)
				}
				break
			}
			break
		}
	}
	if culprit < 0 {
		for i, h := range hs {
			if h.State == HealthBlockedOnGet {
				culprit = i
				reason = "waiting for input that never arrives; its upstream (or source) stopped producing"
				break
			}
		}
	}
	if culprit >= 0 {
		for i := culprit + 1; i < len(hs); i++ {
			if hs[i].State == HealthBlockedOnGet && hs[i].Pipeline == hs[culprit].Pipeline {
				hs[i].State = HealthStarved
			}
		}
	}
	return culprit, reason
}

// goroutineExcerpt returns the paragraphs of the process's goroutine
// profile (debug=1: aggregated stacks with their pprof labels) whose labels
// name the given network — the stage goroutines Network.RunContext labels —
// capped at maxBytes.
func goroutineExcerpt(network string, maxBytes int) string {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	needle := fmt.Sprintf("%q:%q", "network", network)
	var out strings.Builder
	for _, block := range strings.Split(buf.String(), "\n\n") {
		// The labels line renders as: # labels: {"k":"v", ...}; tolerate a
		// space after the colon across Go versions.
		if !strings.Contains(block, needle) &&
			!strings.Contains(block, fmt.Sprintf("%q: %q", "network", network)) {
			continue
		}
		if out.Len()+len(block) > maxBytes {
			out.WriteString("(truncated)\n")
			break
		}
		out.WriteString(block)
		out.WriteString("\n\n")
	}
	return strings.TrimRight(out.String(), "\n")
}

// buildStallReport assembles the full report from a snapshot.
func buildStallReport(st NetworkStats, at time.Time, stalled time.Duration) StallReport {
	rep := StallReport{Network: st.Name, At: at, Stalled: stalled}
	// Any park older than the stall span predates the last progress; use
	// half the span so transitions racing the snapshot still classify.
	rep.Stages = classifyStages(st, stalled/2)
	if i, reason := diagnose(rep.Stages); i >= 0 {
		rep.Culprit = rep.Stages[i].Stage
		rep.CulpritPipeline = rep.Stages[i].Pipeline
		rep.Reason = reason
	} else {
		rep.Reason = "no stage is conclusively blocked; the network may be between rounds"
	}
	rep.Goroutines = goroutineExcerpt(st.Name, 16<<10)
	return rep
}

// A Watchdog is a running progress monitor; see Network.Watch.
type Watchdog struct {
	stop chan struct{}
	once sync.Once
	// fired counts OnStall deliveries, for tests and status displays.
	fired atomic.Int64
}

// Stop halts the watchdog. Idempotent; the watchdog also stops by itself
// once the network's Run has returned.
func (w *Watchdog) Stop() { w.once.Do(func() { close(w.stop) }) }

// Fired returns how many stall reports the watchdog has delivered.
func (w *Watchdog) Fired() int64 { return w.fired.Load() }

// Watch starts a progress watchdog on the network. It may be called before
// Run (the watchdog idles until the run starts) and stops by itself when
// Run returns; call Stop to halt it earlier. The watchdog costs one
// goroutine sampling lock-free counters at cfg.Interval — nothing on the
// stage hot paths.
func (nw *Network) Watch(cfg WatchdogConfig) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = 10 * time.Second
	}
	w := &Watchdog{stop: make(chan struct{})}
	go w.run(nw, cfg)
	return w
}

func (w *Watchdog) run(nw *Network, cfg WatchdogConfig) {
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	var lastRounds int64 = -1
	var lastProgress time.Time
	reported := false
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		switch nw.runState.Load() {
		case runStateIdle:
			continue
		case runStateDone:
			return
		}
		now := time.Now()
		st := nw.Stats()
		var total int64
		for _, s := range st.Stages {
			total += s.Rounds
		}
		for _, p := range st.Pipelines {
			total += p.Rounds // a producing source is progress too
		}
		if total != lastRounds || lastProgress.IsZero() {
			lastRounds = total
			lastProgress = now
			reported = false
			continue
		}
		stalled := now.Sub(lastProgress)
		if stalled < cfg.StallAfter || reported {
			continue
		}
		reported = true
		w.fired.Add(1)
		if cfg.OnStall != nil {
			cfg.OnStall(buildStallReport(st, now, stalled))
		}
	}
}

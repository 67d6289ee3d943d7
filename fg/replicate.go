package fg

import (
	"fmt"
	"sync/atomic"
)

// Stage replication. The paper notes (Section II) that FG gains additional
// parallelism "when threads can run concurrently on multiple cores"; for a
// stage whose work is pure computation on its own buffer, the natural next
// step is serving one stage with several worker goroutines. Replicate marks
// a round stage to be run by n workers sharing its input and output queues.
// Buffers may leave a replicated stage in a different order than they
// entered (like a fork-join, downstream stages can reorder by Buffer.Round
// if they care); everything else about the pipeline is unchanged.
//
// This is an extension beyond the paper's published FG, flagged as such in
// DESIGN.md.
//
// Replication is one of two ways to put cores behind a compute stage; the
// other is intra-buffer parallelism: the multicore kernels in
// internal/sortalgo (parallel radix sort, merge, partition) that the
// sorting programs enable through the Parallelism knob on their configs.
// They differ in what they trade away. Replicate pipelines across buffers —
// n buffers are inside the stage at once (shrinking the pool slack that
// hides I/O latency elsewhere) and output order is not preserved.
// Intra-buffer parallelism splits the work on each single buffer — order is
// preserved and no extra buffers are consumed, but it only pays off when
// one buffer carries enough work to shard (the kernels fall back to serial
// below tuned thresholds). Prefer intra-buffer parallelism for large
// buffers and order-sensitive consumers; prefer Replicate for many small
// independent rounds.
//
// Both mechanisms may be enabled at once without oversubscribing the
// machine: the intra-buffer kernels draw from one process-wide pool
// (internal/parallel) bounded at GOMAXPROCS-1 helpers, and a stage's worker
// always executes its own share, so n replicas each running a parallel
// kernel compete for the same bounded helper set rather than spawning n
// pools. The cost of combining them is only that each replica sees fewer
// idle helpers, degrading toward plain replication.

// Replicate asks for n parallel workers for this stage. It panics unless
// the stage is a round stage on the spine of exactly one ordinary
// (non-virtual) pipeline; validation of the group happens when the network
// starts.
func (s *Stage) Replicate(n int) *Stage {
	if n < 1 {
		panic(fmt.Sprintf("fg: stage %q: invalid replica count %d", s.name, n))
	}
	if s.round == nil {
		panic(fmt.Sprintf("fg: stage %q: only round stages can be replicated", s.name))
	}
	if len(s.slots) != 1 || s.slots[0].pos < 0 {
		panic(fmt.Sprintf("fg: stage %q: only spine stages of one pipeline can be replicated", s.name))
	}
	s.replicas = n
	return s
}

// validateReplicas is called from group.build.
func (g *group) validateReplicas() error {
	for _, p := range g.pipes {
		for _, s := range p.stages {
			if s.replicas > 1 && len(g.pipes) > 1 {
				return fmt.Errorf("fg: virtual group %q: stage %q cannot be replicated", g.name, s.name)
			}
		}
	}
	return nil
}

// runReplicated serves one stage position with n workers. Each data buffer
// is processed by exactly one worker. The single caboose circulates: each
// worker that meets it counts itself out and puts it back for its siblings;
// the last one forwards it downstream. Because a worker only meets the
// caboose after conveying its in-flight buffers, every data buffer reaches
// the output queue before the caboose does. The workers share one stage
// object, so its park state flaps between the transitions of whichever
// worker stored last; it is exact when the whole crew is parked, which is
// the case a watchdog cares about.
func runReplicated(nw *Network, g *group, pos int) {
	s := g.pipes[0].stages[pos]
	in := g.queues[pos]
	out := g.queues[pos+1]
	var seen atomic.Int32
	circulate := func(_ *Stage, b *Buffer) (bool, bool) {
		if int(seen.Add(1)) < s.replicas {
			_ = in.push(b, nw.done) // pass it to a sibling
			return false, true
		}
		_ = out.push(b, nw.done) // last worker: done for real
		return true, true
	}
	for w := 0; w < s.replicas; w++ {
		nw.goServe(g, s.name, &roundLoop{in: in, out: out, stages: []*Stage{s}, caboose: circulate})
	}
}

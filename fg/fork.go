package fg

import (
	"fmt"
	"time"
)

// Fork-join pipelines. Section VII of the paper notes that <stxxl>'s
// pipelining "allows constructs that resemble FG's fork-join and
// intersecting pipelines" — fork-join is part of FG's repertoire, and this
// file provides it: a pipeline may split into parallel branches at a fork
// stage, which routes each buffer down exactly one branch, and the branches
// rejoin before the pipeline continues. Buffers remain tied to their
// pipeline and its pool; only their path varies.
//
// A typical use is a classify-then-treat pipeline: cheap buffers take a
// bypass branch while expensive ones take a branch with heavy stages, and
// the two kinds overlap instead of queueing behind one another.
//
// Restrictions (checked when the network starts): fork-join regions may not
// nest, may only appear in ordinary (non-virtual) pipelines, and branch
// stages are round stages private to their branch. Buffer order downstream
// of the join is not defined across branches; stages that care can reorder
// by Buffer.Round.

// A RouteFunc examines (and may transform) a buffer at a fork and returns
// the index of the branch it should travel.
type RouteFunc func(ctx *Ctx, b *Buffer) (int, error)

// A Fork is a fork-join region under construction.
type Fork struct {
	name     string
	pipe     *Pipeline
	route    RouteFunc
	stage    *Stage     // the fork stage on the spine
	joiner   *Stage     // the implicit join stage on the spine
	branches [][]*Stage // per-branch chains
	joined   bool
}

// AddFork appends a fork stage that splits the pipeline into the given
// number of branches. route picks a branch for each buffer. Populate each
// branch with Fork.Branch().AddStage, then close the region with Join
// before appending further spine stages.
func (p *Pipeline) AddFork(name string, branches int, route RouteFunc) *Fork {
	p.nw.mustNotBeStarted()
	if branches < 1 {
		panic(fmt.Sprintf("fg: fork %q needs at least one branch", name))
	}
	if route == nil {
		panic(fmt.Sprintf("fg: fork %q needs a route function", name))
	}
	if p.openFork != nil {
		panic(fmt.Sprintf("fg: fork %q opened while fork %q is still open (forks do not nest)",
			name, p.openFork.name))
	}
	f := &Fork{
		name:     name,
		pipe:     p,
		route:    route,
		branches: make([][]*Stage, branches),
	}
	f.stage = &Stage{name: name, fork: f}
	f.stage.slots = append(f.stage.slots, slotRef{pipe: p, pos: len(p.stages)})
	p.stages = append(p.stages, f.stage)

	f.joiner = &Stage{name: name + ".join", join: f}
	f.joiner.slots = append(f.joiner.slots, slotRef{pipe: p, pos: len(p.stages)})
	p.stages = append(p.stages, f.joiner)

	p.openFork = f
	p.forks = append(p.forks, f)
	return f
}

// Branches returns the number of branches.
func (f *Fork) Branches() int { return len(f.branches) }

// Branch returns a builder for branch i.
func (f *Fork) Branch(i int) *Branch {
	if i < 0 || i >= len(f.branches) {
		panic(fmt.Sprintf("fg: fork %q has no branch %d", f.name, i))
	}
	return &Branch{fork: f, index: i}
}

// Join closes the fork region; the pipeline continues with the stages
// appended after it. A branch left empty is a bypass: its buffers go
// straight to the join.
func (f *Fork) Join() {
	f.pipe.nw.mustNotBeStarted()
	if f.joined {
		panic(fmt.Sprintf("fg: fork %q joined twice", f.name))
	}
	f.joined = true
	f.pipe.openFork = nil
}

// A Branch builds one branch of a fork.
type Branch struct {
	fork  *Fork
	index int
}

// AddStage appends a round stage to the branch.
func (b *Branch) AddStage(name string, fn RoundFunc) *Stage {
	b.fork.pipe.nw.mustNotBeStarted()
	if fn == nil {
		panic("fg: AddStage with nil function")
	}
	if b.fork.joined {
		panic(fmt.Sprintf("fg: stage %q added to branch of fork %q after Join", name, b.fork.name))
	}
	s := &Stage{name: name, round: fn}
	// Branch stages record their pipeline membership with a negative
	// position marker; they are not on the spine and are only reachable
	// through their branch queues.
	s.slots = append(s.slots, slotRef{pipe: b.fork.pipe, pos: -1})
	b.fork.branches[b.index] = append(b.fork.branches[b.index], s)
	return s
}

// forkRuntime holds the queues of one fork region, built at start.
type forkRuntime struct {
	f *Fork
	// branchQ[i][j] feeds branch i's stage j; the final queue of each
	// branch is the join stage's spine input queue.
	branchQ [][]queue
}

// buildForkRuntimes validates and wires a pipeline's fork regions. The
// spine queues already exist (one per spine position); this adds the branch
// queues.
func (g *group) buildForkRuntimes() ([]*forkRuntime, error) {
	p := g.pipes[0]
	if len(p.forks) == 0 {
		return nil, nil
	}
	if len(g.pipes) > 1 {
		return nil, fmt.Errorf("fg: pipeline %q: fork-join is not supported in virtual groups", p.name)
	}
	if p.openFork != nil {
		return nil, fmt.Errorf("fg: pipeline %q: fork %q was never joined", p.name, p.openFork.name)
	}
	var rts []*forkRuntime
	for _, f := range p.forks {
		rt := &forkRuntime{f: f, branchQ: make([][]queue, len(f.branches))}
		for i, chain := range f.branches {
			qs := make([]queue, len(chain))
			for j := range chain {
				// Branch queues always have one producer (the fork stage or
				// the previous branch stage) and one consumer (the branch
				// stage), so they are always ring-eligible.
				qs[j] = newQueue(p.nBuffers+1, true)
			}
			rt.branchQ[i] = qs
		}
		rts = append(rts, rt)
	}
	return rts, nil
}

// branchEntry returns the queue feeding the first stage of branch i, which
// is the join input queue when the branch is empty (a bypass).
func (rt *forkRuntime) branchEntry(i int, g *group) queue {
	if len(rt.branchQ[i]) > 0 {
		return rt.branchQ[i][0]
	}
	return g.queues[rt.f.joiner.posIn(rt.f.pipe)]
}

// runFork executes the fork stage: route each buffer down a branch; at the
// caboose, seal every branch with its own caboose.
func runFork(nw *Network, g *group, rt *forkRuntime) {
	defer nw.wg.Done()
	f := rt.f
	defer nw.recoverPanic(f.stage.name)
	pos := f.stage.posIn(f.pipe)
	in := g.queues[pos]
	ctx := newCtx(nw, f.stage)
	ctx.restricted = true
	f.stage.stats.setPark(StageAccepting, time.Now())
	for {
		b, err := in.pop(nw.done)
		if err != nil {
			return
		}
		if b.caboose {
			f.stage.stats.setPark(StageDone, time.Now())
			for i := range f.branches {
				cb := b
				if i > 0 {
					cb = &Buffer{caboose: true, pipe: b.pipe}
				}
				_ = rt.branchEntry(i, g).push(cb, nw.done)
			}
			return
		}
		branch, ferr := f.route(ctx, b)
		f.stage.stats.rounds.Add(1)
		if ferr != nil {
			nw.fail(fmt.Errorf("fg: fork %q: %w", f.name, ferr))
			return
		}
		if branch < 0 || branch >= len(f.branches) {
			nw.fail(fmt.Errorf("fg: fork %q routed a buffer to branch %d of %d",
				f.name, branch, len(f.branches)))
			return
		}
		if err := rt.branchEntry(branch, g).push(b, nw.done); err != nil {
			return
		}
	}
}

// runBranchStage executes one branch stage: a round stage whose output is
// the next branch queue, or the join queue at the branch tail.
func runBranchStage(nw *Network, g *group, rt *forkRuntime, branch, idx int) {
	defer nw.wg.Done()
	s := rt.f.branches[branch][idx]
	defer nw.recoverPanic(s.name)
	in := rt.branchQ[branch][idx]
	var out queue
	if idx+1 < len(rt.branchQ[branch]) {
		out = rt.branchQ[branch][idx+1]
	} else {
		out = g.queues[rt.f.joiner.posIn(rt.f.pipe)]
	}
	ctx := newCtx(nw, s)
	ctx.restricted = true
	s.stats.setPark(StageAccepting, time.Now())
	for {
		start := time.Now()
		b, err := in.pop(nw.done)
		if err != nil {
			return
		}
		s.stats.acceptWait.Add(int64(time.Since(start)))
		round := -1
		if !b.caboose {
			round = b.Round
		}
		nw.traceWait(s, b.pipe, round, start)
		if b.caboose {
			s.stats.setPark(StageDone, time.Now())
			_ = out.push(b, nw.done)
			return
		}
		t0 := time.Now()
		s.stats.setPark(StageWorking, t0)
		ferr := s.round(ctx, b)
		t1 := time.Now()
		s.stats.work.Add(int64(t1.Sub(t0)))
		s.stats.rounds.Add(1)
		s.stats.setPark(StageAccepting, t1)
		nw.traceWork(s, b.pipe, b.Round, t0)
		if ferr != nil {
			nw.fail(fmt.Errorf("fg: stage %q: %w", s.name, ferr))
			return
		}
		if err := out.push(b, nw.done); err != nil {
			return
		}
	}
}

// runJoin executes the implicit join: pass buffers through, and collapse
// the branches' cabooses into one for the rest of the pipeline.
func runJoin(nw *Network, g *group, rt *forkRuntime) {
	defer nw.wg.Done()
	defer nw.recoverPanic(rt.f.joiner.name)
	pos := rt.f.joiner.posIn(rt.f.pipe)
	in := g.queues[pos]
	out := g.queues[pos+1]
	remaining := len(rt.f.branches)
	rt.f.joiner.stats.setPark(StageAccepting, time.Now())
	for {
		b, err := in.pop(nw.done)
		if err != nil {
			return
		}
		if b.caboose {
			remaining--
			if remaining == 0 {
				rt.f.joiner.stats.setPark(StageDone, time.Now())
				_ = out.push(b, nw.done)
				return
			}
			continue
		}
		if err := out.push(b, nw.done); err != nil {
			return
		}
	}
}

package fg

import "fmt"

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

	// branchQ[i][j] feeds branch i's stage j, built with the network; each
	// branch's list ends with the join's spine input queue, so an empty
	// branch (a bypass) leads straight to the join.
	branchQ [][]queue
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

// buildForks validates the group's fork regions and builds their branch
// queues. group.build calls it once the spine queues exist.
func (g *group) buildForks() error {
	for _, p := range g.pipes {
		if len(p.forks) > 0 && len(g.pipes) > 1 {
			return fmt.Errorf("fg: pipeline %q: fork-join is not supported in virtual groups", p.name)
		}
		if p.openFork != nil {
			return fmt.Errorf("fg: pipeline %q: fork %q was never joined", p.name, p.openFork.name)
		}
		for _, f := range p.forks {
			join := g.queues[f.joiner.posIn(p)]
			f.branchQ = make([][]queue, len(f.branches))
			for i, chain := range f.branches {
				for _, s := range chain {
					// A branch queue has one producer (the fork or the
					// previous branch stage) and one consumer (the branch
					// stage), so it is always ring-eligible.
					f.branchQ[i] = append(f.branchQ[i], g.newEdge(p.nBuffers+1, true, s.name))
					s.ctx = newRoundCtx(g.nw, s)
				}
				f.branchQ[i] = append(f.branchQ[i], join)
			}
		}
	}
	return nil
}

// runFork launches the fork stage and every branch stage. The fork routes
// each buffer down one branch and, at the caboose, seals every branch with
// a caboose of its own; a branch stage is an ordinary round stage whose
// output is the next branch queue, or the join queue at the branch tail.
func runFork(nw *Network, g *group, f *Fork) {
	nw.goServe(g, f.name, &roundLoop{
		in:     g.queues[f.stage.posIn(f.pipe)],
		stages: []*Stage{f.stage},
		route: func(ctx *Ctx, b *Buffer) (queue, error) {
			i, err := f.route(ctx, b)
			if err != nil {
				return nil, err
			}
			if i < 0 || i >= len(f.branches) {
				return nil, fmt.Errorf("routed a buffer to branch %d of %d", i, len(f.branches))
			}
			return f.branchQ[i][0], nil
		},
		caboose: func(_ *Stage, b *Buffer) (bool, bool) {
			for i := range f.branches {
				cb := b
				if i > 0 {
					cb = &Buffer{caboose: true, pipe: b.pipe}
				}
				_ = f.branchQ[i][0].push(cb, nw.done)
			}
			return true, true
		},
	})
	for i, chain := range f.branches {
		for j, s := range chain {
			out := f.branchQ[i][j+1]
			nw.goServe(g, s.name, &roundLoop{in: f.branchQ[i][j], out: out,
				stages: []*Stage{s}, caboose: passCabooses(nw, out, 1)})
		}
	}
}

// runJoin launches the implicit join: it passes buffers through and
// collapses the branches' cabooses into one for the rest of the pipeline.
func runJoin(nw *Network, g *group, f *Fork) {
	pos := f.joiner.posIn(f.pipe)
	out := g.queues[pos+1]
	remaining := len(f.branches)
	nw.goServe(g, f.joiner.name, &roundLoop{
		in:     g.queues[pos],
		out:    out,
		stages: []*Stage{f.joiner},
		caboose: func(_ *Stage, b *Buffer) (bool, bool) {
			if remaining--; remaining > 0 {
				return false, false
			}
			_ = out.push(b, nw.done)
			return true, true
		},
	})
}

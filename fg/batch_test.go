package fg

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestBatch runs every kind of round loop under Batch(k): a plain pipeline,
// a virtual group, a fork-join with a multi-stage branch, and a replicated
// stage. Each topology ends in a free stage that accepts until its
// pipeline's caboose and then returns, so a data buffer conveyed after the
// caboose is never collected: "every round exactly once" therefore also
// proves that no data buffer reaches the end after its pipeline's caboose.
// Where the topology promises order (plain and virtual), each pipeline's
// rounds must arrive in order; in the fork-join, each branch stage marks
// the buffers it serves, and every buffer must carry exactly the marks of
// the branch its route picked.
func TestBatch(t *testing.T) {
	const rounds = 40
	// hiccup stalls one round in eight, so input piles up behind the stage
	// and the loops downstream find it queued — the case batching acts on.
	hiccup := func(ctx *Ctx, b *Buffer) error {
		if b.Round%8 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}
	nop := func(ctx *Ctx, b *Buffer) error { return nil }
	mark := func(bit byte) RoundFunc {
		return func(ctx *Ctx, b *Buffer) error {
			b.Data[0] |= bit
			return nil
		}
	}
	// Fork-join: runs of two rounds take branch 0 (x, y, z), then branch 1
	// (w), then branch 2 (a bypass).
	branchMarks := func(round int) byte { return [...]byte{1 | 2 | 4, 8, 0}[(round/2)%3] }
	topologies := []struct {
		name    string
		ordered bool
		marks   func(round int) byte // nil: not checked
		build   func(nw *Network, k int, end *Stage)
	}{
		{"plain", true, nil, func(nw *Network, k int, end *Stage) {
			p := nw.AddPipeline("p", Buffers(6), BufferBytes(1), Rounds(rounds), Batch(k))
			p.AddStage("a", hiccup)
			p.AddStage("b", nop)
			p.AddStage("c", nop)
			p.Add(end)
		}},
		{"virtual", true, nil, func(nw *Network, k int, end *Stage) {
			vg := nw.AddVirtualGroup("g")
			for i := 0; i < 3; i++ {
				p := vg.AddPipeline(fmt.Sprintf("v%d", i), Buffers(4), BufferBytes(1), Rounds(rounds), Batch(k))
				p.AddStage(fmt.Sprintf("a%d", i), hiccup)
				p.AddStage(fmt.Sprintf("b%d", i), nop)
				p.Add(end)
			}
		}},
		{"fork-join", false, branchMarks, func(nw *Network, k int, end *Stage) {
			p := nw.AddPipeline("p", Buffers(6), BufferBytes(1), Rounds(rounds), Batch(k))
			p.AddStage("a", func(ctx *Ctx, b *Buffer) error {
				b.Data[0] = 0
				return hiccup(ctx, b)
			})
			f := p.AddFork("route", 3, func(ctx *Ctx, b *Buffer) (int, error) {
				return (b.Round / 2) % 3, nil // runs of two, so batches form
			})
			f.Branch(0).AddStage("x", mark(1))
			f.Branch(0).AddStage("y", func(ctx *Ctx, b *Buffer) error {
				b.Data[0] |= 2
				return hiccup(ctx, b)
			})
			f.Branch(0).AddStage("z", mark(4))
			f.Branch(1).AddStage("w", mark(8))
			f.Join()
			p.Add(end)
		}},
		{"replicated", false, nil, func(nw *Network, k int, end *Stage) {
			p := nw.AddPipeline("p", Buffers(8), BufferBytes(1), Rounds(rounds), Batch(k))
			p.AddStage("a", hiccup)
			p.AddStage("work", nop).Replicate(3)
			p.Add(end)
		}},
	}
	for _, topo := range topologies {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", topo.name, k), func(t *testing.T) {
				var mu sync.Mutex
				got := map[string][]int{}
				var wrong []string
				nw := NewNetwork("batch")
				end := NewStage("end", func(ctx *Ctx) error {
					// Drain each pipeline in turn until its caboose; buffers
					// of the others are held for their own turn.
					for _, ref := range ctx.Stage().slots {
						for {
							b, ok := ctx.AcceptFrom(ref.pipe)
							if !ok {
								break
							}
							mu.Lock()
							got[b.pipe.name] = append(got[b.pipe.name], b.Round)
							if topo.marks != nil && b.Data[0] != topo.marks(b.Round) {
								wrong = append(wrong, fmt.Sprintf("round %d marked %04b, want %04b",
									b.Round, b.Data[0], topo.marks(b.Round)))
							}
							mu.Unlock()
							ctx.Convey(b)
						}
					}
					return nil
				})
				topo.build(nw, k, end)
				if err := nw.Run(); err != nil {
					t.Fatal(err)
				}
				if len(wrong) > 0 {
					t.Errorf("buffers left the fork down the wrong branch: %v", wrong)
				}
				if len(got) != len(end.slots) {
					t.Fatalf("collected from %d pipelines, want %d", len(got), len(end.slots))
				}
				for pipe, rs := range got {
					seen := make([]int, rounds)
					for i, r := range rs {
						seen[r]++
						if topo.ordered && r != i {
							t.Fatalf("pipeline %s: position %d holds round %d; order lost", pipe, i, r)
						}
					}
					for r, n := range seen {
						if n != 1 {
							t.Errorf("pipeline %s: round %d arrived %d times before the caboose, want 1", pipe, r, n)
						}
					}
				}
			})
		}
	}
}

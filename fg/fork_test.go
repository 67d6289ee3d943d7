package fg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// buildForkNet builds a pipeline that routes even rounds through a doubling
// branch and odd rounds through a +1000 branch, collecting the results.
func buildForkNet(t *testing.T, rounds, buffers int) []uint64 {
	t.Helper()
	nw := NewNetwork("forked")
	p := nw.AddPipeline("main", Buffers(buffers), BufferBytes(8), Rounds(rounds))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		return b.Round % 2, nil
	})
	fork.Branch(0).AddStage("double", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, 2*v)
		return nil
	})
	fork.Branch(1).AddStage("plus1000", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, v+1000)
		return nil
	})
	fork.Join()
	var mu sync.Mutex
	var got []uint64
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		got = append(got, binary.BigEndian.Uint64(b.Bytes()))
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestForkJoinRoutesEveryBuffer(t *testing.T) {
	const rounds = 40
	got := buildForkNet(t, rounds, 3)
	if len(got) != rounds {
		t.Fatalf("collected %d buffers, want %d", len(got), rounds)
	}
	want := map[uint64]bool{}
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			want[uint64(2*r)] = true
		} else {
			want[uint64(r+1000)] = true
		}
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected value %d after join", v)
		}
		delete(want, v)
	}
	if len(want) != 0 {
		t.Errorf("missing values after join: %v", want)
	}
}

func TestForkJoinSingleBuffer(t *testing.T) {
	got := buildForkNet(t, 10, 1)
	if len(got) != 10 {
		t.Fatalf("collected %d buffers with pool of 1, want 10", len(got))
	}
}

func TestForkBypassBranch(t *testing.T) {
	// An empty branch passes buffers straight to the join.
	nw := NewNetwork("bypass")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(8), Rounds(20))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		if b.Round < 5 {
			return 0, nil // heavy branch
		}
		return 1, nil // bypass
	})
	fork.Branch(0).AddStage("negate", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, ^v)
		return nil
	})
	fork.Join()
	var mu sync.Mutex
	var got []uint64
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		got = append(got, binary.BigEndian.Uint64(b.Bytes()))
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("collected %d, want 20", len(got))
	}
	negated, plain := 0, 0
	for _, v := range got {
		if v > 1<<32 {
			negated++
		} else {
			plain++
		}
	}
	if negated != 5 || plain != 15 {
		t.Errorf("negated=%d plain=%d, want 5/15", negated, plain)
	}
}

func TestForkLastRegionFeedsSink(t *testing.T) {
	// A fork-join with nothing after it: the join conveys to the sink and
	// the pipeline still completes.
	nw := NewNetwork("tail")
	p := nw.AddPipeline("main", Buffers(2), BufferBytes(8), Rounds(12))
	var count int64
	var mu sync.Mutex
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 3, func(ctx *Ctx, b *Buffer) (int, error) {
		return b.Round % 3, nil
	})
	for i := 0; i < 3; i++ {
		fork.Branch(i).AddStage(fmt.Sprintf("count%d", i), func(ctx *Ctx, b *Buffer) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		})
	}
	fork.Join()
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Fatalf("branch stages ran %d times, want 12", count)
	}
}

// rendezvous returns a stage body that makes each consecutive group of n
// rounds meet inside the stage: every round of a group blocks until all n
// have entered, and fails the stage if they have not within timeout. A run
// that succeeds proves n invocations were in flight at once, with no
// reliance on wall-clock speedups.
func rendezvous(n, rounds int, timeout time.Duration) RoundFunc {
	arrived := make([]atomic.Int32, rounds/n)
	full := make([]chan struct{}, rounds/n)
	for i := range full {
		full[i] = make(chan struct{})
	}
	return func(ctx *Ctx, b *Buffer) error {
		g := b.Round / n
		if arrived[g].Add(1) == int32(n) {
			close(full[g])
		}
		select {
		case <-full[g]:
			return nil
		case <-time.After(timeout):
			return fmt.Errorf("round %d: %d of %d rounds of its group inside stage %q after %v",
				b.Round, arrived[g].Load(), n, ctx.Stage().Name(), timeout)
		}
	}
}

// runForkRendezvous routes even rounds down branch 0 and odd rounds down
// branch 1, each pair meeting inside the two branch stages at once.
func runForkRendezvous(buffers int, timeout time.Duration) error {
	const rounds = 12
	nw := NewNetwork("overlap")
	p := nw.AddPipeline("main", Buffers(buffers), BufferBytes(1), Rounds(rounds))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		return b.Round % 2, nil
	})
	meet := rendezvous(2, rounds, timeout)
	fork.Branch(0).AddStage("left", meet)
	fork.Branch(1).AddStage("right", meet)
	fork.Join()
	return nw.Run()
}

func TestForkBranchesOverlap(t *testing.T) {
	// A buffer in one branch must not block buffers taking the other: every
	// even round waits inside branch 0 until its odd partner has entered
	// branch 1, and vice versa.
	if err := runForkRendezvous(4, 5*time.Second); err != nil {
		t.Fatalf("branches did not overlap: %v", err)
	}
	// Control: with one buffer the pair can never meet, so the rendezvous
	// must fail — the test can tell overlap from its absence.
	if err := runForkRendezvous(1, 50*time.Millisecond); err == nil {
		t.Fatal("rendezvous passed with a single buffer, where overlap is impossible")
	}
}

func TestForkRouterErrorAborts(t *testing.T) {
	nw := NewNetwork("routeerr")
	p := nw.AddPipeline("main", Buffers(2), Rounds(10))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	boom := errors.New("router boom")
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		if b.Round == 3 {
			return 0, boom
		}
		return 0, nil
	})
	fork.Branch(0).AddStage("noop", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	if err := nw.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want router error", err)
	}
}

func TestForkOutOfRangeBranchAborts(t *testing.T) {
	nw := NewNetwork("routerange")
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) {
		return 7, nil
	})
	fork.Branch(0).AddStage("noop", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	if err := nw.Run(); err == nil {
		t.Fatal("out-of-range branch did not abort the network")
	}
}

func TestForkBranchStageErrorAborts(t *testing.T) {
	nw := NewNetwork("brancherr")
	p := nw.AddPipeline("main", Buffers(2), Rounds(10))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	boom := errors.New("branch boom")
	fork := p.AddFork("route", 1, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	fork.Branch(0).AddStage("fail", func(ctx *Ctx, b *Buffer) error {
		if b.Round == 2 {
			return boom
		}
		return nil
	})
	fork.Join()
	if err := nw.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want branch error", err)
	}
}

func TestUnjoinedForkFailsRun(t *testing.T) {
	nw := NewNetwork("unjoined")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	if err := nw.Run(); err == nil {
		t.Fatal("network with an unjoined fork ran")
	}
}

func TestSpineStageWhileForkOpenPanics(t *testing.T) {
	nw := NewNetwork("open")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("AddStage with an open fork did not panic")
		}
	}()
	p.AddStage("late", func(ctx *Ctx, b *Buffer) error { return nil })
}

func TestNestedForkPanics(t *testing.T) {
	nw := NewNetwork("nested")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddFork("outer", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("nested fork did not panic")
		}
	}()
	p.AddFork("inner", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
}

func TestForkInVirtualGroupFailsRun(t *testing.T) {
	nw := NewNetwork("virtfork")
	vg := nw.AddVirtualGroup("g")
	a := vg.AddPipeline("a", Rounds(1))
	b := vg.AddPipeline("b", Rounds(1))
	for _, p := range []*Pipeline{a, b} {
		f := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
		f.Join()
	}
	if err := nw.Run(); err == nil {
		t.Fatal("fork in a virtual group ran")
	}
}

func TestTwoForkRegionsInOnePipeline(t *testing.T) {
	nw := NewNetwork("two")
	p := nw.AddPipeline("main", Buffers(3), BufferBytes(8), Rounds(30))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	add := func(delta uint64) RoundFunc {
		return func(ctx *Ctx, b *Buffer) error {
			v := binary.BigEndian.Uint64(b.Bytes())
			binary.BigEndian.PutUint64(b.Data, v+delta)
			return nil
		}
	}
	f1 := p.AddFork("first", 2, func(ctx *Ctx, b *Buffer) (int, error) { return b.Round % 2, nil })
	f1.Branch(0).AddStage("add100", add(100))
	f1.Branch(1).AddStage("add200", add(200))
	f1.Join()
	f2 := p.AddFork("second", 2, func(ctx *Ctx, b *Buffer) (int, error) { return (b.Round / 2) % 2, nil })
	f2.Branch(0).AddStage("add1000", add(1000))
	f2.Branch(1).AddStage("add2000", add(2000))
	f2.Join()
	var mu sync.Mutex
	var got []uint64
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		got = append(got, binary.BigEndian.Uint64(b.Bytes()))
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("collected %d, want 30", len(got))
	}
	var want []uint64
	for r := 0; r < 30; r++ {
		v := uint64(r)
		if r%2 == 0 {
			v += 100
		} else {
			v += 200
		}
		if (r/2)%2 == 0 {
			v += 1000
		} else {
			v += 2000
		}
		want = append(want, v)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestForkMultiStageBranches(t *testing.T) {
	nw := NewNetwork("deep")
	p := nw.AddPipeline("main", Buffers(3), BufferBytes(8), Rounds(16))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, 1)
		b.N = 8
		return nil
	})
	mul := func(k uint64) RoundFunc {
		return func(ctx *Ctx, b *Buffer) error {
			v := binary.BigEndian.Uint64(b.Bytes())
			binary.BigEndian.PutUint64(b.Data, v*k)
			return nil
		}
	}
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return b.Round % 2, nil })
	br := fork.Branch(0)
	br.AddStage("x2", mul(2))
	br.AddStage("x3", mul(3))
	br.AddStage("x5", mul(5))
	fork.Branch(1).AddStage("x7", mul(7))
	fork.Join()
	var mu sync.Mutex
	counts := map[uint64]int{}
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		counts[binary.BigEndian.Uint64(b.Bytes())]++
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[30] != 8 || counts[7] != 8 {
		t.Fatalf("counts = %v, want 8 of 30 (2*3*5) and 8 of 7", counts)
	}
}

func TestForkStatsCount(t *testing.T) {
	nw := NewNetwork("forkstats")
	p := nw.AddPipeline("main", Buffers(2), Rounds(9))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
	fork.Branch(0).AddStage("work", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// Every stage is listed, each branch stage right after its fork, and
	// every buffer passes through the fork, the branch and the join.
	var names []string
	for _, st := range nw.Stats().Stages {
		names = append(names, st.Stage)
		if st.Stage != "produce" && st.Rounds != 9 {
			t.Errorf("stage %q counted %d rounds, want 9", st.Stage, st.Rounds)
		}
	}
	if got, want := fmt.Sprint(names), "[produce route work route.join]"; got != want {
		t.Errorf("stats list stages %s, want %s", got, want)
	}
}

// forkSleepNet is produce -> fork "route" (routeSleep per buffer) -> branch
// stage "work" (workSleep per buffer) -> join, for 9 rounds.
func forkSleepNet(routeSleep, workSleep time.Duration) *Network {
	nw := NewNetwork("forksleep")
	p := nw.AddPipeline("main", Buffers(3), Rounds(9))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 1, func(ctx *Ctx, b *Buffer) (int, error) {
		time.Sleep(routeSleep)
		return 0, nil
	})
	fork.Branch(0).AddStage("work", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(workSleep)
		return nil
	})
	fork.Join()
	return nw
}

// TestForkBranchStageIsBottleneck: a slow branch stage governs the run, so
// the bottleneck report must name it — which needs branch stages in Stats.
// Only the branch sleeps: sleep overshoot on a loaded host must not let
// another sleeping stage outweigh it.
func TestForkBranchStageIsBottleneck(t *testing.T) {
	nw := forkSleepNet(0, 2*time.Millisecond)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if r := nw.Stats().Bottleneck(); r.Stage != "work" {
		t.Errorf("bottleneck is %q, want the slow branch stage %q (%v)", r.Stage, "work", r)
	}
}

// TestForkRecordsRouteWork: time inside the route function is the fork's
// work, and its rounds are traced like any other stage's.
func TestForkRecordsRouteWork(t *testing.T) {
	nw := forkSleepNet(time.Millisecond, 0)
	tr := NewTracer(0)
	nw.SetTracer(tr)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range nw.Stats().Stages {
		if st.Stage == "route" && st.Work < 9*time.Millisecond {
			t.Errorf("fork work = %v, want at least 9 routes of 1ms", st.Work)
		}
	}
	works := 0
	for _, e := range tr.Events() {
		if e.Stage == "route" && e.Kind == EventWork {
			works++
		}
	}
	if works != 9 {
		t.Errorf("tracer holds %d work events for the fork, want 9", works)
	}
}

// TestForkWorkingWhileRouting: a fork inside its route function reads
// working, not accepting, so a watchdog does not call it starved.
func TestForkWorkingWhileRouting(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	nw := NewNetwork("forkpark")
	p := nw.AddPipeline("main", Buffers(2), Rounds(3))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	fork := p.AddFork("route", 1, func(ctx *Ctx, b *Buffer) (int, error) {
		if b.Round == 0 {
			close(entered)
			<-release
		}
		return 0, nil
	})
	fork.Branch(0).AddStage("work", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	done := make(chan error, 1)
	go func() { done <- nw.Run() }()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("Run returned %v before routing round 0", err)
	}
	for _, st := range nw.Stats().Stages {
		if st.Stage == "route" && st.State != StageWorking {
			t.Errorf("fork inside its route function reads %v, want working", st.State)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedStageProcessesEverything(t *testing.T) {
	const rounds = 60
	nw := NewNetwork("repl")
	p := nw.AddPipeline("main", Buffers(6), BufferBytes(8), Rounds(rounds))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error {
		binary.BigEndian.PutUint64(b.Data, uint64(b.Round))
		b.N = 8
		return nil
	})
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error {
		v := binary.BigEndian.Uint64(b.Bytes())
		binary.BigEndian.PutUint64(b.Data, v+1000)
		return nil
	}).Replicate(4)
	var mu sync.Mutex
	seen := map[uint64]int{}
	p.AddStage("collect", func(ctx *Ctx, b *Buffer) error {
		mu.Lock()
		seen[binary.BigEndian.Uint64(b.Bytes())]++
		mu.Unlock()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != rounds {
		t.Fatalf("collected %d distinct values, want %d", len(seen), rounds)
	}
	for r := 0; r < rounds; r++ {
		if seen[uint64(r+1000)] != 1 {
			t.Errorf("round %d processed %d times", r, seen[uint64(r+1000)])
		}
	}
}

func TestReplicatedStageOverlapsWork(t *testing.T) {
	// Every group of four consecutive rounds must be inside the stage at
	// once: all four workers busy together, not merely taking turns.
	run := func(replicas int, timeout time.Duration) error {
		const rounds = 16
		nw := NewNetwork("replmeet")
		p := nw.AddPipeline("main", Buffers(8), BufferBytes(1), Rounds(rounds))
		p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
		p.AddStage("meet", rendezvous(4, rounds, timeout)).Replicate(replicas)
		return nw.Run()
	}
	if err := run(4, 5*time.Second); err != nil {
		t.Fatalf("4 replicas did not work concurrently: %v", err)
	}
	// Control: a single worker can never hold four rounds at once.
	if err := run(1, 50*time.Millisecond); err == nil {
		t.Fatal("rendezvous passed with one replica, where overlap is impossible")
	}
}

func TestReplicatedStageErrorAborts(t *testing.T) {
	nw := NewNetwork("replerr")
	p := nw.AddPipeline("main", Buffers(4), Rounds(20))
	p.AddStage("produce", func(ctx *Ctx, b *Buffer) error { return nil })
	boom := errors.New("replica boom")
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error {
		if b.Round == 7 {
			return boom
		}
		return nil
	}).Replicate(3)
	if err := nw.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want replica error", err)
	}
}

func TestReplicateValidation(t *testing.T) {
	nw := NewNetwork("replbad")
	p := nw.AddPipeline("main", Rounds(1))
	free := p.AddFreeStage("free", func(ctx *Ctx) error { return nil })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Replicate on a free stage did not panic")
			}
		}()
		free.Replicate(2)
	}()
	s := p.AddStage("round", func(ctx *Ctx, b *Buffer) error { return nil })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Replicate(0) did not panic")
			}
		}()
		s.Replicate(0)
	}()
}

func TestReplicateInVirtualGroupFailsRun(t *testing.T) {
	nw := NewNetwork("replvirt")
	vg := nw.AddVirtualGroup("g")
	a := vg.AddPipeline("a", Rounds(1))
	b := vg.AddPipeline("b", Rounds(1))
	a.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil }).Replicate(2)
	b.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err == nil {
		t.Fatal("replicated stage in a virtual group ran")
	}
}

func TestBadGroupDoesNotStrandEarlierGroups(t *testing.T) {
	// A network whose second group is invalid must fail Run without leaving
	// the first group's goroutines running.
	before := runtime.NumGoroutine()
	nw := NewNetwork("strand")
	good := nw.AddPipeline("good", Buffers(2), Rounds(5))
	good.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	vg := nw.AddVirtualGroup("bad")
	a := vg.AddPipeline("a", Rounds(1))
	b := vg.AddPipeline("b", Rounds(1))
	for _, p := range []*Pipeline{a, b} {
		f := p.AddFork("f", 2, func(ctx *Ctx, b *Buffer) (int, error) { return 0, nil })
		f.Join()
	}
	if err := nw.Run(); err == nil {
		t.Fatal("invalid network ran")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after failed Run", before, runtime.NumGoroutine())
}

// TestForkBranchStagesTraceWaits: branch stages block on their queues like
// any other stage, so a tracer must see their waits as well as the post-join
// stage's. A 2 ms stage ahead of the fork makes every first pop wait.
func TestForkBranchStagesTraceWaits(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("forkwaits")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(6))
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	fork := p.AddFork("route", 2, func(ctx *Ctx, b *Buffer) (int, error) { return b.Round % 2, nil })
	fork.Branch(0).AddStage("b0", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Branch(1).AddStage("b1", func(ctx *Ctx, b *Buffer) error { return nil })
	fork.Join()
	p.AddStage("after", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	waits := map[string]int{}
	for _, e := range tr.Events() {
		if e.Kind == EventWait {
			waits[e.Stage]++
		}
	}
	for _, st := range []string{"b0", "b1", "after"} {
		if waits[st] == 0 {
			t.Errorf("stage %q recorded no wait events (waits by stage: %v)", st, waits)
		}
	}
}

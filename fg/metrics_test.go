package fg

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServeMetricsMidRun holds a stage mid-round and scrapes the Prometheus
// endpoint while Run is in flight: the acceptance criterion that per-stage
// rounds/work/wait/occupancy are served live, not post-mortem.
func TestServeMetricsMidRun(t *testing.T) {
	nw := NewNetwork("live")
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	p.AddStage("gated", func(ctx *Ctx, b *Buffer) error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	ms, err := nw.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	errc := make(chan error, 1)
	go func() { errc <- nw.Run() }()
	<-entered // the stage holds a buffer: the network is demonstrably mid-run

	body := scrape(t, "http://"+ms.Addr()+"/metrics")
	for _, want := range []string{
		`fg_network_running{network="live"} 1`,
		`fg_stage_rounds_total{network="live",pipeline="main",stage="gated"}`,
		`fg_stage_work_seconds_total{network="live",pipeline="main",stage="gated"}`,
		`fg_stage_wait_seconds_total{network="live",pipeline="main",stage="gated"}`,
		`fg_stage_queue_len{network="live",pipeline="main",stage="gated"}`,
		`fg_pipeline_pool_cap{network="live",pipeline="main"} 2`,
		"# TYPE fg_stage_rounds_total counter",
		"# TYPE fg_stage_queue_len gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("mid-run scrape missing %q in:\n%s", want, body)
		}
	}

	// expvar rides the same server.
	if vars := scrape(t, "http://"+ms.Addr()+"/debug/vars"); !strings.Contains(vars, "fg_network_wall_seconds") {
		t.Errorf("/debug/vars does not expose the fg samples")
	}

	close(gate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	body = scrape(t, "http://"+ms.Addr()+"/metrics")
	for _, want := range []string{
		`fg_network_running{network="live"} 0`,
		`fg_stage_rounds_total{network="live",pipeline="main",stage="gated"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-run scrape missing %q in:\n%s", want, body)
		}
	}
}

// collectedWithin runs the garbage collector until done closes, for a
// bounded number of cycles.
func collectedWithin(done <-chan struct{}) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestRegistryReleasesFinishedNetwork: a registry that outlives its runs
// keeps a finished network's final snapshot, not the network. The network
// (buffer pools and all) becomes collectable once its run is over, while
// its series still scrape with their final values. The network sits in a
// reference cycle (its pipelines point back at it), which SetFinalizer
// cannot finalize, so the probe is a sentinel only its stage references.
func TestRegistryReleasesFinishedNetwork(t *testing.T) {
	reg := NewMetricsRegistry()
	o := &Observe{Metrics: reg}
	collected := make(chan struct{})
	func() {
		sentinel := &[64]byte{}
		runtime.SetFinalizer(sentinel, func(*[64]byte) { close(collected) })
		nw := NewNetwork("released")
		p := nw.AddPipeline("main", Buffers(2), BufferBytes(1<<20), Rounds(5))
		p.AddStage("s", func(ctx *Ctx, b *Buffer) error {
			b.Data[0] = sentinel[0]
			return nil
		})
		finish := o.Attach(nw)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		finish()
	}()
	if !collectedWithin(collected) {
		t.Fatal("the registry keeps a finished network reachable")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fg_network_running{network="released"} 0`,
		`fg_pipeline_rounds_total{network="released",pipeline="main"} 5`,
		`fg_pipeline_pool_cap{network="released",pipeline="main"} 2`,
		`fg_stage_rounds_total{network="released",pipeline="main",stage="s"} 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("post-release scrape missing %q in:\n%s", want, b.String())
		}
	}
	nets, _, _ := reg.Snapshot()
	if len(nets) != 1 || nets[0].Network != "released" || nets[0].Running || nets[0].Wall <= 0 {
		t.Fatalf("final status = %+v", nets)
	}
	if s := nets[0].Stages; len(s) != 1 || s[0].State != HealthDone || s[0].Rounds != 5 {
		t.Errorf("final stage status = %+v", s)
	}
}

// TestRegistryRerunReplacesNetwork: a network registered under the name of
// an earlier one replaces it, so a registry shared by repeated runs serves
// each series once, with the newest run's value.
func TestRegistryRerunReplacesNetwork(t *testing.T) {
	reg := NewMetricsRegistry()
	o := &Observe{Metrics: reg}
	for _, rounds := range []int{3, 7} {
		nw := NewNetwork("again")
		nw.AddPipeline("main", Buffers(1), Rounds(rounds)).
			AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
		finish := o.Attach(nw)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		finish()
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "fg_stage_rounds_total{"); n != 1 {
		t.Errorf("%d fg_stage_rounds_total series, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, `fg_stage_rounds_total{network="again",pipeline="main",stage="s"} 7`) {
		t.Errorf("series does not carry the second run's value:\n%s", out)
	}
}

// TestRegistryRetiredCollector: a retired collector's final samples stay
// in the registry while the collector itself (and whatever it reads)
// becomes collectable, and a newer collector emitting the same series
// overrides them instead of duplicating them.
func TestRegistryRetiredCollector(t *testing.T) {
	r := NewMetricsRegistry()
	collected := make(chan struct{})
	func() {
		counters := &[2]float64{1, 1}
		runtime.SetFinalizer(counters, func(*[2]float64) { close(collected) })
		retire := r.RegisterFunc(func(emit EmitFunc) {
			emit("cluster_bytes_sent_total", map[string]string{"node": "0"}, counters[0])
			emit("cluster_bytes_sent_total", map[string]string{"node": "1"}, counters[1])
		})
		retire()
		retire()         // idempotent
		counters[1] = 99 // a retired collector is never called again
	}()
	if !collectedWithin(collected) {
		t.Fatal("the registry keeps a retired collector reachable")
	}
	scrape := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if out := scrape(); !strings.Contains(out, `cluster_bytes_sent_total{node="1"} 1`) {
		t.Fatalf("retired collector's final samples missing:\n%s", out)
	}
	r.RegisterFunc(func(emit EmitFunc) {
		emit("cluster_bytes_sent_total", map[string]string{"node": "0"}, 2)
	})
	out := scrape()
	if strings.Count(out, `cluster_bytes_sent_total{node="0"}`) != 1 ||
		!strings.Contains(out, `cluster_bytes_sent_total{node="0"} 2`) ||
		!strings.Contains(out, `cluster_bytes_sent_total{node="1"} 1`) {
		t.Errorf("want node 0 from the live collector once, node 1 from the retired one:\n%s", out)
	}
}

func TestRegistryCollectorFunc(t *testing.T) {
	r := NewMetricsRegistry()
	r.RegisterFunc(func(emit EmitFunc) {
		emit("cluster_bytes_sent_total", map[string]string{"node": "0"}, 123)
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `cluster_bytes_sent_total{node="0"} 123`) {
		t.Errorf("collector sample missing:\n%s", b.String())
	}
}

func TestBottleneckReport(t *testing.T) {
	nw := NewNetwork("bn")
	p := nw.AddPipeline("main", Buffers(3), Rounds(8))
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	p.AddStage("mid", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	r := nw.Stats().Bottleneck()
	if r.Stage != "slow" {
		t.Fatalf("bottleneck = %q, want slow (%+v)", r.Stage, r)
	}
	if r.Wall == 0 || r.Utilization <= 0 {
		t.Errorf("report missing wall/utilization: %+v", r)
	}
	// slow (16ms) overlaps mid (4ms): wall must sit well below the 20ms sum,
	// so the overlap fraction is decisively positive.
	if r.Overlap <= 0.3 {
		t.Errorf("overlap = %.2f for a pipelined run, want > 0.3 (%+v)", r.Overlap, r)
	}
	if !strings.Contains(r.String(), "slow") {
		t.Errorf("String() does not name the stage: %s", r)
	}
}

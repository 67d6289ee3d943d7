package fg

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestStatusEndpointMidRun serves the live status while a stage is wedged
// and checks both views: the JSON document classifies the hung stage
// blocked-on-put, and the text rendering names it.
func TestStatusEndpointMidRun(t *testing.T) {
	release := make(chan struct{})
	nw := NewNetwork("statusnet")
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("pass", func(ctx *Ctx, b *Buffer) error { return nil })
	p.AddStage("wedge", func(ctx *Ctx, b *Buffer) error {
		if b.Round == 1 {
			<-release
		}
		return nil
	})
	srv, err := nw.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() { done <- nw.Run() }()

	// Wait until the wedged stage has been parked past the display
	// threshold, then hit the endpoints.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("stage never classified as blocked")
		}
		var stuck bool
		for _, h := range nw.Status().Stages {
			if h.Stage == "wedge" && h.State == HealthBlockedOnPut {
				stuck = true
			}
		}
		if stuck {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	var doc []NetworkStatus
	raw := scrape(t, "http://"+srv.Addr()+"/status.json")
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("/status.json is not valid JSON: %v\n%s", err, raw)
	}
	if len(doc) != 1 || doc[0].Network != "statusnet" || !doc[0].Running {
		t.Fatalf("status document = %+v", doc)
	}
	var wedge *StageHealth
	for i := range doc[0].Stages {
		if doc[0].Stages[i].Stage == "wedge" {
			wedge = &doc[0].Stages[i]
		}
	}
	if wedge == nil {
		t.Fatalf("no entry for the wedged stage: %+v", doc[0].Stages)
	}
	if wedge.State != HealthBlockedOnPut {
		t.Errorf("wedged stage served as %q, want %q", wedge.State, HealthBlockedOnPut)
	}

	text := scrape(t, "http://"+srv.Addr()+"/status")
	if !strings.Contains(text, "wedge") || !strings.Contains(text, HealthBlockedOnPut) {
		t.Errorf("/status text does not show the blocked stage:\n%s", text)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// After the run every stage reads done and the document says finished.
	after := nw.Status()
	if after.Running {
		t.Error("status still running after Run returned")
	}
	for _, h := range after.Stages {
		if h.State != HealthDone {
			t.Errorf("stage %s is %q after the run, want done", h.Stage, h.State)
		}
		if h.Utilization < 0 || h.Utilization > 1.5 {
			t.Errorf("stage %s utilization %v out of range", h.Stage, h.Utilization)
		}
	}
	if !strings.Contains(after.String(), "finished") {
		t.Errorf("post-run rendering:\n%s", after)
	}
}

// TestTraceDroppedMetric checks the registry surfaces a registered tracer's
// dropped-event counter as fg_trace_dropped_total.
func TestTraceDroppedMetric(t *testing.T) {
	tr := NewTracer(5)
	reg := NewMetricsRegistry()
	reg.RegisterTracer(tr)
	reg.RegisterTracer(tr)  // idempotent
	reg.RegisterTracer(nil) // nil-safe
	nw := NewNetwork("droppy")
	nw.SetTracer(tr)
	reg.RegisterNetwork(nw)
	p := nw.AddPipeline("main", Buffers(1), Rounds(50))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() == 0 {
		t.Fatal("tracer dropped nothing; the test needs overflow")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fg_trace_dropped_total") {
		t.Fatalf("scrape has no fg_trace_dropped_total:\n%s", out)
	}
	if strings.Count(out, `fg_trace_dropped_total{`) != 1 {
		t.Errorf("duplicate tracer registration produced multiple series:\n%s", out)
	}
	var n int
	for _, s := range reg.Samples() {
		if s.Name == "fg_trace_dropped_total" {
			n++
			if s.Value != float64(tr.Dropped()) {
				t.Errorf("fg_trace_dropped_total = %v, tracer dropped %d", s.Value, tr.Dropped())
			}
		}
	}
	if n != 1 {
		t.Errorf("Samples carries %d dropped series, want 1", n)
	}
}

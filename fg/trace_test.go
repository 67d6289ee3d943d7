package fg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsWorkAndWait(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("traced")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(6))
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	work, wait := 0, 0
	for _, e := range events {
		switch e.Kind {
		case EventWork:
			work++
			if e.End < e.Start {
				t.Errorf("event ends before it starts: %+v", e)
			}
		case EventWait:
			wait++
		}
	}
	if work != 12 { // 6 rounds x 2 stages
		t.Errorf("recorded %d work events, want 12", work)
	}
	if wait == 0 {
		t.Error("no wait events recorded; the fast stage must have waited on the slow one")
	}
	// Chronological order.
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatal("Events() not sorted by start time")
		}
	}
}

// TestTracerLimit runs 50 rounds into a 5-event ring: exactly the 5 latest
// events survive. One goroutine records them all, so the latest are the
// last round's work and the events just before it.
func TestTracerLimit(t *testing.T) {
	tr := NewTracer(5)
	nw := NewNetwork("limited")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(1), Rounds(50))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 5 {
		t.Fatalf("tracer retained %d events, want exactly 5", len(events))
	}
	lastWork := false
	for _, e := range events {
		if e.Kind == EventWork {
			if e.Round < 45 {
				t.Errorf("retained work of round %d; the ring must overwrite the oldest first: %+v", e.Round, events)
			}
			lastWork = lastWork || e.Round == 49
		}
	}
	if !lastWork {
		t.Errorf("the last round's work was not retained: %+v", events)
	}
}

// TestTracerDroppedCount checks Dropped counts every overwritten event
// exactly: after a 50-round run overflows a 5-event ring, 10 more records
// overwrite 10 more events and leave only themselves.
func TestTracerDroppedCount(t *testing.T) {
	tr := NewTracer(5)
	nw := NewNetwork("dropped")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(1), Rounds(50))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	before := tr.Dropped()
	if before < 45 { // at least 50 work events went into 5 slots
		t.Fatalf("Dropped = %d after 50 rounds into a 5-event ring, want >= 45", before)
	}
	if chart := tr.Gantt(40); !strings.Contains(chart, "dropped") {
		t.Errorf("Gantt header does not surface the dropped count:\n%s", chart)
	}
	for i := 0; i < 10; i++ {
		tr.Record(Event{Stage: "x", Kind: EventWork, Round: i, Start: time.Hour + time.Duration(i)})
	}
	if got := tr.Dropped() - before; got != 10 {
		t.Errorf("10 records into a full ring dropped %d more, want 10", got)
	}
	events := tr.Events()
	if len(events) != 5 {
		t.Fatalf("tracer retained %d events, want exactly 5", len(events))
	}
	for i, e := range events {
		if e.Stage != "x" || e.Round != 5+i {
			t.Errorf("events[%d] = %+v, want the direct record of round %d", i, e, 5+i)
		}
	}
}

// TestTracerRing fills a small ring past capacity and checks that only the
// most recent events survive, in chronological order, and that Dropped
// counts exactly the overwritten ones.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 100; i++ {
		tr.Record(Event{Stage: "s", Pipeline: "p", Kind: EventWork, Round: i,
			Start: time.Duration(i) * time.Millisecond, End: time.Duration(i+1) * time.Millisecond})
	}
	if got := tr.Dropped(); got != 84 {
		t.Errorf("Dropped = %d, want 84", got)
	}
	events := tr.Events()
	if len(events) != 16 {
		t.Fatalf("tracer holds %d events, want 16", len(events))
	}
	for i, e := range events {
		if e.Round != 84+i {
			t.Errorf("events[%d].Round = %d, want %d (oldest events must be overwritten first)", i, e.Round, 84+i)
		}
	}
}

// TestTracerDefaultsAndPartialFill checks the zero-limit default and that a
// partially filled ring reports only what it holds.
func TestTracerDefaultsAndPartialFill(t *testing.T) {
	tr := NewTracer(0)
	if tr.limit != 4096 {
		t.Errorf("NewTracer(0) limit = %d, want 4096", tr.limit)
	}
	if n := len(tr.Events()); n != 0 || tr.Dropped() != 0 {
		t.Errorf("fresh tracer: %d events, Dropped=%d", n, tr.Dropped())
	}
	tr.Record(Event{Stage: "only", Kind: EventWork})
	if events := tr.Events(); len(events) != 1 || events[0].Stage != "only" {
		t.Errorf("events = %+v", events)
	}
	if cap(tr.events) >= 4096 {
		t.Errorf("one event allocated a %d-slot ring; the ring must grow by append", cap(tr.events))
	}
}

// TestTracerConcurrent hammers Record from many goroutines while another
// goroutine snapshots continuously; under -race this proves the locking,
// and every record must be either retained or counted as dropped.
func TestTracerConcurrent(t *testing.T) {
	const writers, per = 8, 2000
	tr := NewTracer(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWg sync.WaitGroup
	snapWg.Add(1)
	go func() {
		defer snapWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range tr.Events() {
					// A torn event would mix fields of different records;
					// every writer keeps Round == int(Start in ms).
					if int(e.Start/time.Millisecond) != e.Round {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := w*per + i
				tr.Record(Event{Stage: "s", Kind: EventWork, Round: r,
					Start: time.Duration(r) * time.Millisecond})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWg.Wait()
	n := len(tr.Events())
	if n != 64 {
		t.Errorf("tracer holds %d events, want 64", n)
	}
	if total := int64(n) + tr.Dropped(); total != writers*per {
		t.Errorf("retained+Dropped = %d, want %d", total, writers*per)
	}
}

// TestTracerChromeTraceMeta dumps an overflowed ring and checks the black
// box carries the overwrite count in its fg_trace_meta event, next to the
// epoch MergeChromeTraces aligns on, and one X event per retained entry.
func TestTracerChromeTraceMeta(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Record(Event{Stage: fmt.Sprintf("s%d", i%2), Pipeline: "p", Kind: EventWork, Round: i,
			Start: time.Duration(i) * time.Millisecond, End: time.Duration(i+1) * time.Millisecond})
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("black box is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Name != "fg_trace_meta" {
		t.Fatal("black box does not open with fg_trace_meta; MergeChromeTraces cannot align it")
	}
	meta := doc.TraceEvents[0]
	if d, _ := meta.Args["dropped"].(float64); d != 12 {
		t.Errorf("meta dropped = %v, want 12", meta.Args["dropped"])
	}
	if e, _ := meta.Args["epoch_unix_nano"].(float64); e == 0 {
		t.Error("meta has no epoch")
	}
	xEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			xEvents++
		}
	}
	if xEvents != 8 {
		t.Errorf("black box has %d X events, ring holds 8", xEvents)
	}
}

func TestWaitEventsCarryRound(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("rounds")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(1), Rounds(4))
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	withRound := 0
	for _, e := range tr.Events() {
		if e.Kind == EventWait && e.Round >= 0 {
			withRound++
		}
	}
	// The fast stage waits out each of the slow stage's 2ms rounds; those
	// waits end with a data buffer whose round must be recorded.
	if withRound == 0 {
		t.Fatal("no wait event carries the round of the buffer that ended it")
	}
}

func TestRetryEventsTraced(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("retries")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(1), Rounds(3))
	fails := map[int]bool{}
	flaky := func(ctx *Ctx, b *Buffer) error {
		if !fails[b.Round] {
			fails[b.Round] = true
			return errors.New("transient")
		}
		return nil
	}
	p.AddStage("flaky", Retry(flaky, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	retries := 0
	for _, e := range tr.Events() {
		if e.Kind == EventRetry {
			retries++
			if e.Stage != "flaky" || e.Round < 0 {
				t.Errorf("retry event misattributed: %+v", e)
			}
		}
	}
	if retries != 3 { // one failed first attempt per round
		t.Errorf("recorded %d retry events, want 3", retries)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("gantt")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// A slow-push marker is not communication: Gantt must leave it out.
	nw.noteSlowPush("main", "work")
	chart := tr.Gantt(60)
	if !strings.Contains(chart, "main/work") {
		t.Errorf("chart missing stage row:\n%s", chart)
	}
	if !strings.Contains(chart, "#") {
		t.Errorf("chart shows no work:\n%s", chart)
	}
	if strings.Count(chart, "~") != 1 { // the legend's own '~'=comm
		t.Errorf("chart draws the slow-push marker as communication:\n%s", chart)
	}
}

func TestGanttEmpty(t *testing.T) {
	tr := NewTracer(0)
	if got := tr.Gantt(40); !strings.Contains(got, "no events") {
		t.Errorf("empty trace rendered %q", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(0)
	nw := NewNetwork("chrome")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(4))
	p.AddStage("slow", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	p.AddStage("fast", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	// An externally recorded comm event must round-trip with its byte count.
	s, e := tr.Span(time.Now().Add(-time.Millisecond), time.Now())
	tr.Record(Event{Stage: "comm.send", Pipeline: "node0", Kind: EventComm, Round: -1, Bytes: 4096, Start: s, End: e})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", decoded.DisplayTimeUnit)
	}
	names := map[string]bool{}
	cats := map[string]bool{}
	lastTs := -1.0
	xEvents := 0
	for _, ev := range decoded.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" && ev.Name != "fg_trace_meta" {
				t.Errorf("metadata event %q, want thread_name or fg_trace_meta", ev.Name)
			}
			if n, ok := ev.Args["name"].(string); ok {
				names[n] = true
			}
		case "s", "f":
			// Flow events carry the transfer link; ts order applies to X only.
		case "X":
			xEvents++
			cats[ev.Cat] = true
			if ev.Ts < lastTs {
				t.Fatalf("X events not in monotonic ts order: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Dur < 0 {
				t.Errorf("negative duration on %q", ev.Name)
			}
			if _, ok := ev.Args["round"]; !ok {
				t.Errorf("X event %q missing round arg", ev.Name)
			}
			if ev.Name == "comm.send" {
				if b, _ := ev.Args["bytes"].(float64); b != 4096 {
					t.Errorf("comm event bytes = %v, want 4096", ev.Args["bytes"])
				}
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"main/slow", "main/fast", "node0/comm.send"} {
		if !names[want] {
			t.Errorf("trace missing thread row %q (have %v)", want, names)
		}
	}
	for _, want := range []string{"work", "comm"} {
		if !cats[want] {
			t.Errorf("trace missing %q category (have %v)", want, cats)
		}
	}
	if xEvents < 8 { // 4 rounds x 2 stages work events at minimum
		t.Errorf("only %d X events recorded", xEvents)
	}
}

func TestSetTracerAfterRunPanics(t *testing.T) {
	nw := NewNetwork("late")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return nil })
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetTracer after Run did not panic")
		}
	}()
	nw.SetTracer(NewTracer(0))
}

// TestFlightRecorderOnNetwork uses a small tracer as a live network's
// flight recorder: every work event lands in it, and a run that fits the
// ring drops nothing.
func TestFlightRecorderOnNetwork(t *testing.T) {
	tr := NewTracer(256)
	nw := NewNetwork("boxed")
	nw.SetTracer(tr)
	p := nw.AddPipeline("main", Buffers(2), Rounds(5))
	p.AddStage("work", func(ctx *Ctx, b *Buffer) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	work := 0
	for _, e := range tr.Events() {
		if e.Kind == EventWork && e.Stage == "work" {
			work++
		}
	}
	if work != 5 {
		t.Errorf("flight recorder saw %d work events, want 5", work)
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("flight recorder dropped %d events from a run that fits its ring", d)
	}
}

// TestSetFlightRecorderAfterRunPanics: a black box cannot be attached to
// a network that has already run, even one whose run failed.
func TestSetFlightRecorderAfterRunPanics(t *testing.T) {
	nw := NewNetwork("lateflight")
	p := nw.AddPipeline("main", Rounds(1))
	p.AddStage("s", func(ctx *Ctx, b *Buffer) error { return errors.New("boom") })
	if err := nw.Run(); err == nil {
		t.Fatal("Run of a failing stage returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetTracer after a failed Run did not panic")
		}
	}()
	nw.SetTracer(NewTracer(256))
}

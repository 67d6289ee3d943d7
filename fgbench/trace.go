package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// A span is one interval the benchmark recorded around a call into the
// program: the workload, one operation (a sort or a service job), or one
// layer call inside it. Spans of one operation share op.
type span struct {
	name       string
	op         int64
	parent     int // index into spans.list; -1 for the workload span
	start, end time.Time
}

// spans keeps the traced run's spans in memory until the run ends. A nil
// *spans records nothing, so the untraced run pays no tracing cost.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// add records a finished span and returns its index, the parent handle
// for its children.
func (s *spans) add(name string, op int64, parent int, start, end time.Time) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, op: op, parent: parent, start: start, end: end})
	return len(s.list) - 1
}

// open records a span whose end is not known yet; close sets it.
func (s *spans) open(name string, op int64, parent int) int {
	now := time.Now()
	return s.add(name, op, parent, now, now)
}

func (s *spans) close(i int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list[i].end = time.Now()
	s.mu.Unlock()
}

// timed runs fn inside a child span of parent and returns fn's wall time,
// which the untraced run measures the same way.
func (s *spans) timed(name string, op int64, parent int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	s.add(name, op, parent, start, end)
	return end.Sub(start), err
}

// spanRow is one line of the per-layer span table.
type spanRow struct {
	name        string
	n           int
	total, self time.Duration
}

// table aggregates spans by name. A span's self time is its duration
// minus the part of it that its child spans cover.
func (s *spans) table() []spanRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := make([][]int, len(s.list))
	for i, sp := range s.list {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	rows := map[string]*spanRow{}
	var order []string
	for i, sp := range s.list {
		r := rows[sp.name]
		if r == nil {
			r = &spanRow{name: sp.name}
			rows[sp.name] = r
			order = append(order, sp.name)
		}
		d := sp.end.Sub(sp.start)
		covered := s.covered(sp, children[i])
		r.n++
		r.total += d
		r.self += d - covered
	}
	out := make([]spanRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	return out
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func (s *spans) covered(parent span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := s.list[k].start, s.list[k].end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// printTable writes the per-layer span table.
func (s *spans) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-40s %6s %11s %11s %11s\n", "span", "n", "total_s", "self_s", "mean_ms")
	for _, r := range s.table() {
		fmt.Fprintf(w, "%-40s %6d %11.4f %11.4f %11.3f\n", r.name, r.n,
			r.total.Seconds(), r.self.Seconds(), float64(r.total)/float64(r.n)/float64(time.Millisecond))
	}
}

// writeChrome writes the spans, merged with the program's own FG and
// communication events from tr, as one Chrome trace at path. Each
// operation gets its own row, named by its op ID.
func (s *spans) writeChrome(path string, tr *fg.Tracer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	s.mu.Lock()
	evs := []event{{Name: "fg_trace_meta", Ph: "M", Args: map[string]any{"epoch_unix_nano": s.epoch.UnixNano()}}}
	for _, sp := range s.list {
		cat := "layer"
		switch {
		case sp.parent < 0:
			cat = "workload"
		case s.list[sp.parent].parent < 0:
			cat = "op"
		}
		evs = append(evs, event{
			Name: sp.name, Cat: cat, Ph: "X", Tid: sp.op,
			Ts:   float64(sp.start.Sub(s.epoch)) / float64(time.Microsecond),
			Dur:  float64(sp.end.Sub(sp.start)) / float64(time.Microsecond),
			Args: map[string]any{"op": sp.op},
		})
	}
	s.mu.Unlock()
	var mine, theirs bytes.Buffer
	if err := json.NewEncoder(&mine).Encode(map[string]any{"traceEvents": evs}); err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(&theirs); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fg.MergeChromeTraces(f, &mine, &theirs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// observeComm puts every local node's blocking sends and receives on tr's
// timeline, as the experiment harness does for its own traced runs. The
// returned function removes the observers.
func observeComm(c *cluster.Cluster, tr *fg.Tracer) func() {
	for _, n := range c.Local() {
		pipe := fmt.Sprintf("node%d", n.Rank())
		n.SetCommObserver(func(op string, peer, nbytes int, xfer int64, start, end time.Time) {
			e := fg.Event{Stage: "comm." + op, Pipeline: pipe, Kind: fg.EventComm, Round: -1, Bytes: int64(nbytes), Xfer: xfer}
			e.Start, e.End = tr.Span(start, end)
			tr.Record(e)
		})
	}
	return func() {
		for _, n := range c.Local() {
			n.SetCommObserver(nil)
		}
	}
}

// netCollector gathers the final snapshot of every FG network a traced
// operation runs, through fg.Observe.OnStats (called concurrently by the
// cluster's nodes).
type netCollector struct {
	mu   sync.Mutex
	nets []fg.NetworkStats
	last time.Time // when the most recent network finished
}

func (c *netCollector) onStats(st fg.NetworkStats) {
	c.mu.Lock()
	c.nets = append(c.nets, st)
	c.last = time.Now()
	c.mu.Unlock()
}

// result returns the collected snapshots and when the last one arrived.
func (c *netCollector) result() ([]fg.NetworkStats, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nets, c.last
}

// traceFile names the Chrome trace of one traced run, under the build
// directory the benchmark already owns.
func traceFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "fgbench", fmt.Sprintf("trace-%s-%d.json", workload, seed))
}

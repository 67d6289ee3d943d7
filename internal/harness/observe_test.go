package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/workload"
)

// decodeChromeTrace parses a Chrome trace-event JSON document and returns
// the thread-row names and the per-kind X-event counts, failing the test on
// malformed structure (the -trace-out acceptance criterion: valid JSON,
// monotonic ts, all stages present).
func decodeChromeTrace(t *testing.T, raw []byte) (rows map[string]bool, kinds map[string]int) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	rows = map[string]bool{}
	kinds = map[string]int{}
	lastTs := -1.0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if n, ok := ev.Args["name"].(string); ok {
				rows[n] = true
			}
		case "X":
			if ev.Ts < lastTs {
				t.Fatalf("X events out of ts order: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Dur < 0 {
				t.Fatalf("negative duration on %q", ev.Name)
			}
			kinds[ev.Cat]++
		case "s", "f":
			// Flow events linking a send to its recv; not ts-ordered with X.
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	return rows, kinds
}

// hasRow reports whether some thread row's name contains sub.
func hasRow(rows map[string]bool, sub string) bool {
	for r := range rows {
		if strings.Contains(r, sub) {
			return true
		}
	}
	return false
}

func TestDsortChromeTraceRoundTrip(t *testing.T) {
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	tr := fg.NewTracer(1 << 20)
	pr.Observe = &fg.Observe{Tracer: tr}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rows, kinds := decodeChromeTrace(t, buf.Bytes())
	// Every pass-1 and pass-2 round stage of node 0 must have a row, as
	// must the comm timeline the harness records per node.
	for _, stage := range []string{"read", "permute", "sort", "write", "merge", "node0/comm.send", "node0/comm.recv"} {
		if !hasRow(rows, stage) {
			t.Errorf("trace has no row for %q (rows: %v)", stage, rows)
		}
	}
	if kinds["work"] == 0 || kinds["comm"] == 0 {
		t.Errorf("trace lacks work or comm events: %v", kinds)
	}
	if tr.Dropped() > 0 {
		t.Errorf("tracer dropped %d events at this tiny scale", tr.Dropped())
	}
}

func TestCsortChromeTraceRoundTrip(t *testing.T) {
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	tr := fg.NewTracer(1 << 20)
	pr.Observe = &fg.Observe{Tracer: tr}
	if _, err := pr.Run(Csort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rows, kinds := decodeChromeTrace(t, buf.Bytes())
	if len(rows) == 0 || kinds["work"] == 0 {
		t.Fatalf("csort trace empty: rows=%v kinds=%v", rows, kinds)
	}
	if !hasRow(rows, "comm.") {
		t.Errorf("csort trace has no comm rows: %v", rows)
	}
}

// TestObserveMetricsAndStats exercises the other two Observe channels on a
// real program: the registry scrapes cluster counters and OnStats sees one
// snapshot per network.
func TestObserveMetricsAndStats(t *testing.T) {
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	reg := fg.NewMetricsRegistry()
	var mu sync.Mutex
	var finished []string
	pr.Observe = &fg.Observe{
		Metrics: reg,
		OnStats: func(st fg.NetworkStats) {
			mu.Lock()
			finished = append(finished, st.Name)
			mu.Unlock()
			if st.Wall <= 0 {
				t.Errorf("network %s finished with zero wall time", st.Name)
			}
		},
	}
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	// Two nodes, two passes: four networks finished.
	mu.Lock()
	n := len(finished)
	mu.Unlock()
	if n != 4 {
		t.Errorf("OnStats saw %d networks, want 4 (%v)", n, finished)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cluster_bytes_sent_total",
		"cluster_send_wait_seconds_total",
		"cluster_recv_wait_seconds_total",
		"fg_stage_rounds_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry scrape missing %s", want)
		}
	}
}

// scrapeSeries renders the registry's Prometheus exposition and parses it
// with parseSeries.
func scrapeSeries(t *testing.T, reg *fg.MetricsRegistry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseSeries(t, b.String())
}

// parseSeries parses a Prometheus exposition into one value per series
// (name plus label set), failing the test on a series that appears twice —
// invalid exposition.
func parseSeries(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Errorf("series %s appears twice", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

// sumSeries sums the values of every series of one metric.
func sumSeries(series map[string]float64, name string) float64 {
	var sum float64
	for k, v := range series {
		if strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// TestSharedRegistryTwoRuns: two runs sharing one metrics registry — as
// fgexp, supervised retries and multi-attempt fgd jobs do — must leave
// every series exactly once, carrying the second run's value: the second
// run's networks replace the first's under the same names, and the second
// cluster's counters replace the first's.
func TestSharedRegistryTwoRuns(t *testing.T) {
	reg := fg.NewMetricsRegistry()
	var mu sync.Mutex
	final := map[string]fg.NetworkStats{}
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	pr.Observe = &fg.Observe{
		Metrics: reg,
		OnStats: func(st fg.NetworkStats) {
			mu.Lock()
			final[st.Name] = st
			mu.Unlock()
		},
	}
	first, err := pr.Run(Dsort, workload.Uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr.TotalRecords *= 2
	mu.Lock()
	final = map[string]fg.NetworkStats{}
	mu.Unlock()
	second, err := pr.Run(Dsort, workload.Uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Comm.BytesSent == second.Comm.BytesSent {
		t.Fatal("the two runs sent the same bytes; the test cannot tell them apart")
	}

	series := scrapeSeries(t, reg)
	for name, want := range map[string]int64{
		"cluster_bytes_sent_total":    second.Comm.BytesSent,
		"cluster_messages_sent_total": second.Comm.MessagesSent,
		"cluster_bytes_recvd_total":   second.Comm.BytesRecvd,
	} {
		if got := sumSeries(series, name); got != float64(want) {
			t.Errorf("%s sums to %v over the nodes, want the second run's %d", name, got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(final) != 4 {
		t.Fatalf("second run finished %d networks, want 4", len(final))
	}
	for name, st := range final {
		key := fmt.Sprintf("fg_network_wall_seconds{network=%q}", name)
		if got := series[key]; got != st.Wall.Seconds() {
			t.Errorf("%s = %v, want the second run's %v", key, got, st.Wall.Seconds())
		}
		for _, s := range st.Stages {
			labels := fmt.Sprintf("{network=%q,pipeline=%q,stage=%q}", name, s.Pipeline, s.Stage)
			if got := series["fg_stage_rounds_total"+labels]; got != float64(s.Rounds) {
				t.Errorf("fg_stage_rounds_total%s = %v, want %d", labels, got, s.Rounds)
			}
			if got := series["fg_stage_work_seconds_total"+labels]; got != s.Work.Seconds() {
				t.Errorf("fg_stage_work_seconds_total%s = %v, want %v", labels, got, s.Work.Seconds())
			}
		}
	}
}

// TestDetachedClusterReleased: once the harness detaches a cluster from a
// registry that stays reachable, the cluster (disks, mailboxes and all)
// becomes collectable, and its counters still scrape with the run's final
// totals. The cluster sits in reference cycles, which SetFinalizer cannot
// finalize, so the probe is a sentinel only the cluster references.
func TestDetachedClusterReleased(t *testing.T) {
	reg := fg.NewMetricsRegistry()
	collected := make(chan struct{})
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	pr.Observe = &fg.Observe{Metrics: reg, Flight: fg.NewFlightRecorder(0)}
	pr.OnCluster = func(c *cluster.Cluster) {
		sentinel := &[64]byte{}
		runtime.SetFinalizer(sentinel, func(*[64]byte) { close(collected) })
		c.OnPeerDeath(func(int, error) { _ = sentinel[0] })
	}
	res, err := pr.Run(Dsort, workload.Uniform, 0)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	for i := 0; i < 50 && !released; i++ {
		runtime.GC()
		select {
		case <-collected:
			released = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !released {
		t.Fatal("the registry keeps a detached cluster reachable")
	}
	series := scrapeSeries(t, reg)
	if got := sumSeries(series, "cluster_bytes_sent_total"); got == 0 || got != float64(res.Comm.BytesSent) {
		t.Errorf("cluster_bytes_sent_total sums to %v, want the run's %d", got, res.Comm.BytesSent)
	}
}

// TestObserveCLITraceOutAtomicWrite drives the CLI observability bundle end
// to end: the -trace-out file must appear as a complete, valid Chrome trace
// with no temp-file debris left beside it (the write goes through a temp
// file and rename).
func TestObserveCLITraceOutAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	obs, _, finish, err := ObserveCLI("", path, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if obs == nil || obs.Tracer == nil || obs.Flight == nil {
		t.Fatalf("bundle incomplete: %+v", obs)
	}
	pr := tinyParams()
	pr.Nodes = 2
	pr.ColumnsPerNode = 1
	pr.Observe = obs
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	if err := finish(nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	rows, kinds := decodeChromeTrace(t, raw)
	if len(rows) == 0 || kinds["work"] == 0 || kinds["comm"] == 0 {
		t.Errorf("trace incomplete: rows=%v kinds=%v", rows, kinds)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "trace.json" {
			t.Errorf("debris left beside the trace: %s", e.Name())
		}
	}
}

// TestObserveCLIAllOff checks the pay-nothing contract: no flags, no bundle.
func TestObserveCLIAllOff(t *testing.T) {
	obs, _, finish, err := ObserveCLI("", "", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if obs != nil {
		t.Errorf("zero flags built a bundle: %+v", obs)
	}
	if finish == nil {
		t.Fatal("finish is nil")
	}
	if err := finish(nil); err != nil {
		t.Errorf("no-op finish errored: %v", err)
	}
}

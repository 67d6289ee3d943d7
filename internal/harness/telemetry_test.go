package harness

// Tests for the fleet telemetry wiring: the collector that turns the fg
// registry into wire records, the /cluster HTTP endpoints, and — the
// acceptance tests for the tentpole — a two-process TCP sort whose rank-0
// fleet view names the governing rank and stage, and a chaos run whose
// remote stall surfaces as a cross-rank diagnosis at the aggregator.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/workload"
)

func TestRankOfNetwork(t *testing.T) {
	cases := []struct {
		name string
		rank int
		ok   bool
	}{
		{"dsort.p1@3", 3, true},
		{"csort.gather@0", 0, true},
		{"no-suffix", 0, false},
		{"bad@rank", 0, false},
		{"negative@-1", 0, false},
	}
	for _, c := range cases {
		rank, ok := rankOfNetwork(c.name)
		if ok != c.ok || (ok && rank != c.rank) {
			t.Errorf("rankOfNetwork(%q) = (%d, %v), want (%d, %v)", c.name, rank, ok, c.rank, c.ok)
		}
	}
}

// TestFleetCollectorStallLifecycle: a watchdog stall report is captured
// under the stalled network's rank, rides the collected record, and clears
// when that network finishes.
func TestFleetCollectorStallLifecycle(t *testing.T) {
	o := &fg.Observe{Watchdog: &fg.WatchdogConfig{}}
	fc := newFleetCollector(o)
	o.Watchdog.OnStall(fg.StallReport{
		Network: "dsort.p2@1",
		Culprit: "merge",
		Stalled: 2 * time.Second,
	})
	rec := fc.collect(1, false)
	if rec.Stall == nil || rec.Stall.Culprit != "merge" || rec.Stall.Stalled != 2*time.Second {
		t.Fatalf("stall not collected: %+v", rec.Stall)
	}
	if other := fc.collect(0, false); other.Stall != nil {
		t.Fatalf("stall leaked to rank 0: %+v", other.Stall)
	}
	// A different network finishing must not clear it; the stalled one must.
	o.OnStats(fg.NetworkStats{Name: "dsort.p1@1"})
	if rec := fc.collect(1, false); rec.Stall == nil {
		t.Fatal("unrelated network finish cleared the stall")
	}
	o.OnStats(fg.NetworkStats{Name: "dsort.p2@1"})
	if rec := fc.collect(1, false); rec.Stall != nil {
		t.Fatal("stalled network finished but the stall survived")
	}
	// restore unhooks: a new stall no longer lands in the collector.
	fc.restore()
	if o.Watchdog.OnStall != nil {
		o.Watchdog.OnStall(fg.StallReport{Network: "dsort.p3@1", Culprit: "x"})
	}
	if rec := fc.collect(1, false); rec.Stall != nil {
		t.Fatal("restore left the stall hook installed")
	}
}

// TestClusterTelemetryInproc: an in-process dsort with the plane on — the
// fleet view fills from the real fg registry, every rank reports, the
// bottleneck names a stage, the metrics endpoint carries fleet_ series, and
// the blackbox endpoint pulls a flight-recorder dump.
func TestClusterTelemetryInproc(t *testing.T) {
	ct, err := ServeClusterTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	// Before any run the endpoints answer 503, not garbage.
	resp, err := http.Get("http://" + ct.Addr() + "/cluster/status.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-run status.json answered %d, want 503", resp.StatusCode)
	}

	obs := &fg.Observe{Metrics: fg.NewMetricsRegistry(), Flight: fg.NewFlightRecorder(0)}
	pr := DefaultParams()
	pr.Nodes = 2
	pr.TotalRecords = 1 << 12
	pr.RecordSize = 16
	pr.Parallelism = 1
	pr.Verify = false
	pr.Observe = obs
	pr.Telemetry = cluster.TelemetryConfig{Interval: 2 * time.Millisecond}
	pr.OnTelemetry = ct.SetPlane
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}

	// The plane stopped with the cluster, but the aggregator retains the
	// last record per rank — the view outlives the run.
	var st cluster.ClusterStatus
	if err := getJSON(ct.Addr(), "/cluster/status.json", &st); err != nil {
		t.Fatal(err)
	}
	if st.P != 2 || len(st.Ranks) != 2 {
		t.Fatalf("fleet view P=%d ranks=%d, want 2", st.P, len(st.Ranks))
	}
	for _, rs := range st.Ranks {
		if !rs.Reported || rs.Record == nil {
			t.Fatalf("rank %d never reported", rs.Rank)
		}
		if rs.Record.Program != "dsort" {
			t.Errorf("rank %d program %q, want dsort", rs.Rank, rs.Record.Program)
		}
		stages := 0
		for _, ns := range rs.Record.Networks {
			stages += len(ns.Stages)
		}
		if stages == 0 {
			t.Errorf("rank %d record carries no stages", rs.Rank)
		}
	}
	if st.Bottleneck.Rank < 0 || st.Bottleneck.Stage == "" {
		t.Fatalf("fleet bottleneck names no governing rank+stage: %+v", st.Bottleneck)
	}
	t.Logf("fleet view: %s", st.Bottleneck.String())

	metrics := getBody(t, ct.Addr(), "/cluster/metrics")
	for _, want := range []string{"fleet_rank_fresh", "fleet_stage_work_seconds_total", "fleet_bottleneck_governing"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/cluster/metrics missing %s", want)
		}
	}
	parseSeries(t, metrics) // every series once

	bb := getBody(t, ct.Addr(), "/cluster/blackbox?rank=0")
	if !strings.Contains(bb, "traceEvents") {
		t.Errorf("blackbox pull is not a Chrome trace: %.80s", bb)
	}
}

// TestTelemetryRecordIsStatusDocument: stage to fleet is one schema. After
// a telemetry-armed 2-rank dsort, each rank's final wire record carries
// every one of its networks as the very document the node-local
// /status.json serves for it, byte for byte, under wire version 2.
func TestTelemetryRecordIsStatusDocument(t *testing.T) {
	obs := &fg.Observe{Metrics: fg.NewMetricsRegistry()}
	var plane *cluster.Telemetry
	pr := DefaultParams()
	pr.Nodes = 2
	pr.TotalRecords = 1 << 12
	pr.RecordSize = 16
	pr.Parallelism = 1
	pr.Verify = false
	pr.Observe = obs
	pr.Telemetry = cluster.TelemetryConfig{Interval: 2 * time.Millisecond}
	pr.OnTelemetry = func(tel *cluster.Telemetry) { plane = tel }
	if _, err := pr.Run(Dsort, workload.Uniform, 0); err != nil {
		t.Fatal(err)
	}
	ms, err := obs.Metrics.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	var local []json.RawMessage
	if err := getJSON(ms.Addr(), "/status.json", &local); err != nil {
		t.Fatal(err)
	}
	served := map[string]string{}
	for _, raw := range local {
		var doc struct {
			Network string `json:"network"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		served[doc.Network] = string(raw)
	}

	if cluster.TelemetryVersion != 2 {
		t.Fatalf("wire version %d, want 2", cluster.TelemetryVersion)
	}
	shipped := 0
	for _, rs := range plane.Aggregator().Status().Ranks {
		if rs.Record == nil || rs.Record.V != 2 {
			t.Fatalf("rank %d: record %+v, want a v2 record", rs.Rank, rs.Record)
		}
		for _, ns := range rs.Record.Networks {
			got, err := json.Marshal(ns)
			if err != nil {
				t.Fatal(err)
			}
			if want := served[ns.Network]; string(got) != want {
				t.Errorf("rank %d ships %s as\n%s\nbut /status.json serves\n%s", rs.Rank, ns.Network, got, want)
			}
			shipped++
		}
	}
	if shipped == 0 || shipped != len(served) {
		t.Errorf("records ship %d networks, /status.json serves %d", shipped, len(served))
	}
}

// getJSON fetches and decodes one endpoint.
func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %d: %s", path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getBody(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// reserveLoopbackPort picks a free port the same way spawnTCPJob does for
// the rank addresses.
func reserveLoopbackPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClusterTelemetryTwoProcessTCP is the tentpole acceptance test: two
// OS processes run csort over real TCP, rank 1's records reach rank 0 over
// the control connection, and rank 0's /cluster/status.json names the
// governing rank and stage for the whole job.
func TestClusterTelemetryTwoProcessTCP(t *testing.T) {
	addr := reserveLoopbackPort(t)
	children := spawnTCPJob(t, 2, func(rank int) []string {
		// A job big enough to watch live: the 4K-record fault-test sort
		// finishes inside one telemetry interval.
		env := []string{"FG_TCP_TELEMETRY=10ms", "FG_TCP_LINGER=60s",
			"FG_TCP_STACKDUMP=30s", "FG_TCP_RECORDS=262144"}
		if rank == 0 {
			env = append(env, "FG_TCP_CLUSTER_ADDR="+addr)
		}
		return env
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st cluster.ClusterStatus
		err := getJSON(addr, "/cluster/status.json", &st)
		if err == nil && len(st.Ranks) == 2 &&
			st.Ranks[0].Reported && st.Ranks[1].Reported &&
			st.Bottleneck.Rank >= 0 && st.Bottleneck.Stage != "" {
			t.Logf("fleet view across 2 processes: %s", st.Bottleneck.String())
			metrics := getBody(t, addr, "/cluster/metrics")
			if !strings.Contains(metrics, `fleet_rank_fresh{rank="1"}`) {
				t.Error("/cluster/metrics carries no rank-1 series")
			}
			return
		}
		if time.Now().After(deadline) {
			for rank, ch := range children {
				t.Logf("rank %d stdout:\n%s\nstderr:\n%s", rank, ch.stdout.String(), ch.stderr.String())
			}
			doc, _ := json.Marshal(st)
			t.Fatalf("fleet view never named a governing rank+stage (last err: %v)\nlast view: %s", err, doc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterTelemetryRemoteStallDiagnosis is the chaos acceptance test: a
// connection killed mid-frame stalls the job in one process, that rank's
// stall record reaches the aggregator in the other, and the fleet view's
// diagnosis names the stalled rank and stage — a cross-rank story assembled
// in one place.
func TestClusterTelemetryRemoteStallDiagnosis(t *testing.T) {
	addr := reserveLoopbackPort(t)
	children := spawnTCPJob(t, 2, func(rank int) []string {
		env := []string{"FG_TCP_TELEMETRY=10ms", "FG_TCP_LINGER=60s", "FG_TCP_STALL=1500ms"}
		if rank == 0 {
			env = append(env, "FG_TCP_CLUSTER_ADDR="+addr, "FG_TCP_FAULT=closemid")
		}
		return env
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st cluster.ClusterStatus
		err := getJSON(addr, "/cluster/status.json", &st)
		if err == nil {
			for _, d := range st.Diagnosis {
				if strings.Contains(d, `stage "`) &&
					(strings.Contains(d, "blocked") || strings.Contains(d, "stalled")) {
					t.Logf("cross-rank diagnosis: %q", st.Diagnosis)
					return
				}
			}
		}
		if time.Now().After(deadline) {
			for rank, ch := range children {
				t.Logf("rank %d stdout:\n%s\nstderr:\n%s", rank, ch.stdout.String(), ch.stderr.String())
			}
			t.Fatalf("no stall diagnosis ever surfaced (last err: %v, diagnosis: %q)", err, st.Diagnosis)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

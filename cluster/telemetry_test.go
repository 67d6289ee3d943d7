package cluster

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fg-go/fg/fg"
)

// startTestTelemetry opens an all-local inproc cluster with the telemetry
// plane running and the aggregator on rank 0.
func startTestTelemetry(t *testing.T, nodes int, cfg TelemetryConfig) (*Cluster, *Telemetry) {
	t.Helper()
	c, err := Open(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	tel, err := c.StartTelemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tel == nil {
		t.Fatal("StartTelemetry returned nil with a positive interval")
	}
	return c, tel
}

// TestTelemetryDisabled: a zero config is free — no plane, and every method
// of the nil *Telemetry is a safe no-op.
func TestTelemetryDisabled(t *testing.T) {
	c, err := Open(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tel, err := c.StartTelemetry(TelemetryConfig{})
	if err != nil || tel != nil {
		t.Fatalf("zero config: got (%v, %v), want (nil, nil)", tel, err)
	}
	if c.Telemetry() != nil {
		t.Fatal("cluster reports a telemetry plane that was never started")
	}
	var nilTel *Telemetry
	if nilTel.Aggregator() != nil || nilTel.Published() != 0 {
		t.Fatal("nil Telemetry methods are not no-ops")
	}
	nilTel.stop()
	if _, err := nilTel.Pull(0, PullBlackbox, time.Second); err == nil {
		t.Fatal("Pull on nil Telemetry succeeded")
	}
}

// TestTelemetryDoubleStart: a second StartTelemetry is rejected, as is an
// aggregator rank outside the cluster.
func TestTelemetryDoubleStart(t *testing.T) {
	c, _ := startTestTelemetry(t, 2, TelemetryConfig{Interval: time.Hour})
	if _, err := c.StartTelemetry(TelemetryConfig{Interval: time.Hour}); err == nil {
		t.Fatal("second StartTelemetry succeeded")
	}
	c2, err := Open(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.StartTelemetry(TelemetryConfig{Interval: time.Hour, Aggregator: 99}); err == nil {
		t.Fatal("out-of-range aggregator rank accepted")
	}
}

// TestTelemetryPublishesAllRanks: within a startup interval every local
// rank's record reaches the aggregator, filled by the Collect callback, and
// the fleet bottleneck names the governing rank and stage.
func TestTelemetryPublishesAllRanks(t *testing.T) {
	const P = 4
	c, tel := startTestTelemetry(t, P, TelemetryConfig{
		Interval: 5 * time.Millisecond,
		Collect: func(rank int) RankTelemetry {
			return RankTelemetry{
				Program: "test",
				Networks: []fg.NetworkStatus{{
					Network: "test@0", Running: true,
					Bottleneck: fg.BottleneckReport{
						Stage: "merge", Pipeline: "p", Work: time.Duration(rank+1) * time.Millisecond,
					},
				}},
			}
		},
	})
	agg := tel.Aggregator()
	if agg == nil {
		t.Fatal("aggregator rank 0 is local but Aggregator() is nil")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := agg.Status()
		reported := 0
		for _, rs := range st.Ranks {
			if rs.Reported {
				reported++
			}
		}
		if reported == P {
			if st.P != P || st.AggregatorRank != 0 {
				t.Fatalf("status header P=%d agg=%d", st.P, st.AggregatorRank)
			}
			// The fleet bottleneck is the rank with the most governing
			// work: rank P-1 by construction.
			if st.Bottleneck.Rank != P-1 || st.Bottleneck.Stage != "merge" {
				t.Fatalf("fleet bottleneck %+v, want rank %d stage merge", st.Bottleneck, P-1)
			}
			if !strings.Contains(st.Bottleneck.String(), "merge") {
				t.Fatalf("bottleneck string %q", st.Bottleneck.String())
			}
			if agg.Bottleneck().Rank != P-1 {
				t.Fatalf("Bottleneck() disagrees with Status().Bottleneck")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d ranks reported", reported, P)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if tel.Published() == 0 {
		t.Fatal("Published() == 0 after records arrived")
	}
	_ = c
}

// TestTelemetryVersionSkew: an inbound record from a newer wire version is
// dropped and counted, never ingested — mixed fleets degrade to staleness,
// not misdecoding. Undecodable frames count the same way.
func TestTelemetryVersionSkew(t *testing.T) {
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{Interval: time.Hour})
	rec := RankTelemetry{V: TelemetryVersion + 1, Rank: 1, Seq: 1 << 40}
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	tel.deliver(Frame{Src: 1, Dst: 0, Tag: telemetryTag, Data: data})
	tel.deliver(Frame{Src: 1, Dst: 0, Tag: telemetryTag, Data: []byte("not json")})
	if got := tel.decodeErrs.Load(); got != 2 {
		t.Fatalf("decodeErrs = %d, want 2", got)
	}
	if rs := tel.Aggregator().Status().Ranks[1]; rs.Reported && rs.Record.Seq == 1<<40 {
		t.Fatal("newer-version record was ingested")
	}
}

// TestTelemetryStaleness: a record's age is measured against the
// aggregator's own arrival clock, and past StaleAfter the rank reads stale
// with a diagnosis line — degradation, not failure.
func TestTelemetryStaleness(t *testing.T) {
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{
		Interval:   time.Hour,
		StaleAfter: 50 * time.Millisecond,
	})
	agg := tel.Aggregator()
	agg.ingestRecord(RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 1 << 40}, time.Now().Add(-time.Minute))
	st := agg.Status()
	rs := st.Ranks[1]
	if !rs.Reported || !rs.Stale || rs.AgeNS < int64(50*time.Millisecond) {
		t.Fatalf("rank 1 status {reported:%v stale:%v age:%v}, want reported and stale",
			rs.Reported, rs.Stale, time.Duration(rs.AgeNS))
	}
	found := false
	for _, d := range st.Diagnosis {
		if strings.Contains(d, "rank 1") && strings.Contains(d, "stale") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no staleness diagnosis in %q", st.Diagnosis)
	}
}

// TestTelemetrySeqRegression: an out-of-order record (smaller Seq) never
// replaces a fresher one.
func TestTelemetrySeqRegression(t *testing.T) {
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{Interval: time.Hour})
	agg := tel.Aggregator()
	now := time.Now()
	agg.ingestRecord(RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 1000, Program: "new"}, now)
	agg.ingestRecord(RankTelemetry{V: TelemetryVersion, Rank: 1, Seq: 999, Program: "old"}, now)
	if got := agg.Status().Ranks[1].Record.Program; got != "new" {
		t.Fatalf("stale record replaced fresh one: program %q", got)
	}
}

// TestClusterBottleneckPrefersFresh: a stale rank's enormous work total
// must not govern while any fresh rank reports work; with nothing fresh it
// may (best evidence available).
func TestClusterBottleneckPrefersFresh(t *testing.T) {
	stale := RankStatus{Rank: 0, Reported: true, Stale: true,
		Bottleneck: ClusterBottleneck{BottleneckReport: fg.BottleneckReport{Stage: "huge", Work: 100}}}
	fresh := RankStatus{Rank: 1, Reported: true,
		Bottleneck: ClusterBottleneck{BottleneckReport: fg.BottleneckReport{Stage: "small", Work: 10}}}
	b := clusterBottleneck([]RankStatus{stale, fresh})
	if b.Rank != 1 || b.Stage != "small" {
		t.Fatalf("governing %+v, want fresh rank 1", b)
	}
	b = clusterBottleneck([]RankStatus{stale})
	if b.Rank != 0 || b.Stage != "huge" {
		t.Fatalf("governing %+v, want stale fallback rank 0", b)
	}
	b = clusterBottleneck(nil)
	if b.Rank != -1 {
		t.Fatalf("governing %+v on no evidence, want rank -1", b)
	}
	if !strings.Contains(b.String(), "no stage work") {
		t.Fatalf("empty bottleneck string %q", b.String())
	}
}

// TestDiagnoseFleetCrossCorrelation: the fleet diagnosis joins one rank's
// stall report with that rank's own failure-detector view — the "rank 2
// stage merge blocked-on-recv from rank 5, which is dead" story.
func TestDiagnoseFleetCrossCorrelation(t *testing.T) {
	stalled := RankStatus{
		Rank:     2,
		Reported: true,
		Record: &RankTelemetry{
			Stall: &fg.StallReport{
				Network: "dsort.p2@2", Culprit: "merge",
				Stages:  []fg.StageHealth{{Stage: "merge", State: fg.HealthBlockedOnGet}},
				Stalled: 3 * time.Second,
			},
			Peers: []fg.PeerHealth{
				{Rank: 5, Monitored: true, Dead: true},
				{Rank: 3, Monitored: true, Suspect: true},
				{Rank: 0, Monitored: false, Dead: true}, // unmonitored: ignored
			},
		},
	}
	dead := RankStatus{Rank: 5, Reported: false, Dead: true}
	lines := diagnoseFleet([]RankStatus{stalled, dead})
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		`rank 2 stage "merge" blocked-on-recv`,
		"rank(s) 5 dead",
		"3 suspect",
		"rank 5 is declared dead",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("diagnosis %q missing %q", joined, want)
		}
	}
	// A blocked-on-put culprit on a rank whose comm counters show only
	// blocked receives reads blocked-on-recv, not blocked-on-send.
	recvBound := RankStatus{
		Rank: 1, Reported: true,
		Record: &RankTelemetry{
			Stall: &fg.StallReport{Network: "n@1", Culprit: "commio",
				Stages: []fg.StageHealth{{Stage: "commio", State: fg.HealthBlockedOnPut}}},
			Comm: CommStats{RecvsBlocked: 2},
		},
	}
	lines = diagnoseFleet([]RankStatus{recvBound})
	if !strings.Contains(strings.Join(lines, "\n"), "blocked-on-recv") {
		t.Fatalf("recv-bound put culprit diagnosed as %q", lines)
	}
}

// TestTelemetryLocalPulls: the pull kinds against local ranks — the
// blackbox callback round-trips, the heap profile is non-empty, and an
// unknown kind or out-of-range rank errors cleanly.
func TestTelemetryLocalPulls(t *testing.T) {
	const blackbox = `{"trace":"events"}`
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{
		Interval: time.Hour,
		Blackbox: func(w io.Writer) error {
			_, err := io.WriteString(w, blackbox)
			return err
		},
	})
	data, err := tel.Pull(0, PullBlackbox, time.Second)
	if err != nil || string(data) != blackbox {
		t.Fatalf("blackbox pull: %q, %v", data, err)
	}
	heap, err := tel.Pull(1, PullHeapProfile, time.Second)
	if err != nil || len(heap) == 0 {
		t.Fatalf("heap pull: %d bytes, %v", len(heap), err)
	}
	if _, err := tel.Pull(0, "nonsense", time.Second); err == nil {
		t.Fatal("unknown pull kind succeeded")
	}
	if _, err := tel.Pull(99, PullBlackbox, time.Second); err == nil {
		t.Fatal("pull from out-of-range rank succeeded")
	}
}

// TestTelemetryStallAutoPull: a record carrying a fresh stall report makes
// the aggregator pull that rank's blackbox exactly once per episode.
func TestTelemetryStallAutoPull(t *testing.T) {
	var mu sync.Mutex
	pullCount := 0
	_, tel := startTestTelemetry(t, 2, TelemetryConfig{
		Interval: time.Hour,
		Blackbox: func(w io.Writer) error {
			mu.Lock()
			pullCount++
			mu.Unlock()
			_, err := io.WriteString(w, "blackbox-bytes")
			return err
		},
	})
	agg := tel.Aggregator()
	rec := RankTelemetry{
		V: TelemetryVersion, Rank: 0, Seq: 1000,
		Stall: &fg.StallReport{Network: "n@0", Culprit: "merge", At: time.Now()},
	}
	agg.ingestRecord(rec, time.Now())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := agg.StallBlackbox(0); err == nil {
			if string(data) != "blackbox-bytes" {
				t.Fatalf("stall blackbox %q", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall never triggered a blackbox pull")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The same episode re-reported must not pull again.
	rec.Seq = 1001
	agg.ingestRecord(rec, time.Now())
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	got := pullCount
	mu.Unlock()
	if got != 1 {
		t.Fatalf("stall episode pulled %d times, want 1", got)
	}
	if _, err := agg.StallBlackbox(1); err == nil {
		t.Fatal("StallBlackbox for a rank with no stall succeeded")
	}
}

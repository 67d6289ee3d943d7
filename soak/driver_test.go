package soak

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/internal/benchfmt"
)

// TestMain routes re-exec'd worker processes into WorkerMain before any
// test runs — the same trick the harness's chaos tests play, so `go test
// ./soak` alone exercises a real multi-process soak.
func TestMain(m *testing.M) {
	if IsWorker() {
		os.Exit(WorkerMain())
	}
	os.Exit(m.Run())
}

// testOptions spawn workers from this test binary with its test runner
// disarmed.
func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		RunDir:     t.TempDir(),
		KeepRunDir: true, // the TempDir cleanup owns removal
		WorkerArgs: []string{"-test.run=^$"},
		Log:        testWriter{t},
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestSoakSmoke is the acceptance test of the tentpole: the builtin smoke
// scenario — 2 ranks over real TCP, rank 1 SIGKILLed mid-pass-2, a
// replacement admitted and resumed from checkpoint — must pass end to end
// under this test binary, and its report must carry the resilience story:
// a retry, a restart, a sub-threshold death detection, a resumed pass, and
// a history line the bench tooling can parse.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	s, err := Builtin("smoke")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || len(rep.Trials) != 1 {
		t.Fatalf("smoke run not OK: %+v", rep)
	}
	tr := rep.Trials[0]
	if tr.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (the replacement rank)", tr.Restarts)
	}
	if tr.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (the survivor's second attempt)", tr.Retries)
	}
	if tr.Deaths < 1 {
		t.Errorf("deaths = %d, want >= 1 (the heartbeat declaration)", tr.Deaths)
	}
	// The victim was heard from before dying, so detection ages against
	// DeadAfter (600ms), not the 30s startup grace: latency lands near the
	// threshold, nowhere near the grace.
	if tr.DeathDetectMS < 500 || tr.DeathDetectMS > 5000 {
		t.Errorf("death detected in %.0fms, want roughly the 600ms dead threshold", tr.DeathDetectMS)
	}
	if !contains(tr.Resumed, "pass1") {
		t.Errorf("rank 0 resumed %v, want pass1 from the checkpoint", tr.Resumed)
	}
	for _, w := range tr.Workers {
		if w.LeakedGoroutines != 0 {
			t.Errorf("rank %d leaked %d goroutines", w.Rank, w.LeakedGoroutines)
		}
	}

	// The distilled benchmark entry must round-trip through the bench
	// tooling's own parser and land in a history file.
	line := rep.BenchLine()
	res, ok := benchfmt.ParseLine(line)
	if !ok {
		t.Fatalf("BenchLine %q does not parse as a benchmark line", line)
	}
	if res.Name != "BenchmarkSoak/smoke" || res.Metrics["ns/op"] <= 0 {
		t.Errorf("parsed bench line %+v", res)
	}
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
	if appended, err := rep.AppendHistory(hist, "test"); err != nil || !appended {
		t.Fatalf("append history: appended=%v err=%v", appended, err)
	}
	entries, skipped, err := benchfmt.ReadHistory(hist)
	if err != nil || skipped != 0 || len(entries) != 1 {
		t.Fatalf("history readback: %d entries, %d skipped, err=%v", len(entries), skipped, err)
	}
	if entries[0].Label != "test" || len(entries[0].Benchmarks) != 1 {
		t.Errorf("history entry %+v", entries[0])
	}
}

// TestSoakCleanRunNoFaults: the control scenario must pass with zero
// resilience machinery engaged — no retries, no restarts, no deaths.
func TestSoakCleanRunNoFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	s, err := Builtin("clean-run")
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(t)
	opt.Trials = 1 // one trial is proof enough under go test
	rep, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("clean run failed: %+v", rep)
	}
	tr := rep.Trials[0]
	if tr.Retries != 0 || tr.Restarts != 0 || tr.Deaths != 0 {
		t.Errorf("clean run engaged resilience machinery: retries=%d restarts=%d deaths=%d",
			tr.Retries, tr.Restarts, tr.Deaths)
	}
	if len(tr.Workers) != s.Nodes {
		t.Errorf("collected %d worker results, want %d", len(tr.Workers), s.Nodes)
	}
}

// TestRunReportFailedTrialsStayOffTheCurve: a run with no passing trial
// must not emit a benchmark entry — a broken soak polluting the perf
// history would defeat the trend gate.
func TestRunReportFailedTrialsStayOffTheCurve(t *testing.T) {
	rep := RunReport{
		Scenario: "x", Records: 1 << 20, RecordSize: 16,
		Trials: []TrialReport{{Trial: 1, OK: false, WallMS: 1000}},
	}
	if _, ok := rep.BenchResult(); ok {
		t.Error("failed run produced a bench entry")
	}
	if line := rep.BenchLine(); line != "" {
		t.Errorf("failed run produced bench line %q", line)
	}
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
	appended, err := rep.AppendHistory(hist, "x")
	if err != nil || appended {
		t.Errorf("failed run appended to history: appended=%v err=%v", appended, err)
	}
	if _, statErr := os.Stat(hist); !os.IsNotExist(statErr) {
		t.Error("failed run created a history file")
	}
}

// TestMarkWatch: the supervisor watcher must count markers across write
// boundaries and wake waiters promptly.
func TestMarkWatch(t *testing.T) {
	w := newMarkWatch(": failed")
	w.Write([]byte("supervise: job x attempt 1: fai"))
	if w.Count() != 0 {
		t.Fatal("counted a split marker early")
	}
	done := make(chan bool, 1)
	go func() { done <- w.WaitAbove(0, 5*time.Second) }()
	w.Write([]byte("led: boom\nattempt 2: failed: again\n"))
	if !<-done {
		t.Fatal("waiter never woke")
	}
	if got := w.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if !w.WaitAbove(1, time.Millisecond) {
		t.Error("WaitAbove(1) should already be satisfied")
	}
	if w.WaitAbove(2, 10*time.Millisecond) {
		t.Error("WaitAbove(2) satisfied with only 2 markers")
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

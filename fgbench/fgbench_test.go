package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/fg-go/fg/internal/harness"
)

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metrics the
// command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", bj.EndToEnd, endToEnd)
	}
	if pl := perLayer(); !reflect.DeepEqual(bj.PerLayer, pl) {
		var lines []string
		for _, d := range pl {
			lines = append(lines, `    {"name": "`+d.Name+`", "unit": "`+d.Unit+`", "better": ""}`)
		}
		t.Errorf("BENCHMARK.json per_layer differs from the command's; it reports:\n%s", strings.Join(lines, ",\n"))
	}
}

func TestWantDiskBytesMatchesMeasured(t *testing.T) {
	// The figures device-bound recorded at its scale: 4 nodes, 2^18
	// 16-byte records.
	if got := wantDiskBytes("dsort", 4, 1<<18, 16); got != 8394752+8388608 {
		t.Errorf("dsort: %d", got)
	}
	if got := wantDiskBytes("csort", 4, 1<<18, 16); got != 2*12582912 {
		t.Errorf("csort: %d", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	s := newSpans()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := s.add("op", 1, -1, at(0), at(100))
	s.add("a", 1, root, at(10), at(40))
	s.add("b", 1, root, at(30), at(60)) // overlaps a: 10..60 is covered once
	s.add("c", 1, root, at(90), at(120))
	rows := map[string]spanRow{}
	for _, r := range s.table() {
		rows[r.name] = r
	}
	if got := rows["op"].self; got != 40*time.Millisecond {
		t.Errorf("op self time %v, want 40ms", got)
	}
	if got := rows["a"].self; got != 30*time.Millisecond {
		t.Errorf("a self time %v, want 30ms", got)
	}
}

// measure runs a sort workload's traced loop for a fixed number of
// iterations and returns its figures.
func measure(t *testing.T, pr harness.Params, iters int) *report {
	t.Helper()
	r := newReport()
	if err := (sortRun{params: pr, minIters: iters, trace: true}).run("test", r); err != nil {
		t.Fatal(err)
	}
	if r.failed > 0 {
		t.Fatalf("%d of %d operations failed", r.failed, r.attempted)
	}
	return r
}

// riseAtLeast is how much a figure must grow for the attribution tests
// to call it risen; the slowdowns they apply are far larger.
const riseAtLeast = 1.2

// kernelBound is how far a kernel's work time may move when only the
// devices change: the host's CPUs are shared with every node's other
// stages, so kernel wall time carries their scheduling noise.
const kernelBound = 0.5

func mustRise(t *testing.T, name string, before, after map[string]float64) {
	t.Helper()
	if !(after[name] >= riseAtLeast*before[name]) || before[name] <= 0 {
		t.Errorf("%s went from %.6f to %.6f; want a rise of at least %.0f%%", name, before[name], after[name], 100*(riseAtLeast-1))
	} else {
		t.Logf("%s rose from %.6f to %.6f", name, before[name], after[name])
	}
}

// TestAttributionSlowDisk is the ledger's own check that a slower device
// is blamed on the device: on device-bound with a disk model twice as
// slow, pdm busy time and dsort's wall time rise, while dsort's run-sort
// kernel time stays within kernelBound.
func TestAttributionSlowDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the device-bound workload twice")
	}
	base := deviceBound(DefaultSeed)
	slow := base
	slow.Disk.SeekLatency *= 2
	slow.Disk.BytesPerSecond /= 2
	b, s := measure(t, base, 4), measure(t, slow, 4)
	mustRise(t, "pdm.dsort.busy_s", b.layer, s.layer)
	mustRise(t, "dsort_s", b.e2e, s.e2e)
	name := "fg.dsort.sort.work_s"
	if r := s.layer[name] / b.layer[name]; !(math.Abs(r-1) <= kernelBound) {
		t.Errorf("%s moved from %.6f to %.6f with only the disk slowed", name, b.layer[name], s.layer[name])
	}
}

// TestAttributionKernelWork is the converse check: on compute-bound with
// twice the records, every kernel call handles twice the records, so the
// kernel stages' work time rises while pdm busy time stays 0.
//
// Serial kernels (Parallelism 1) would be the narrower slow-down, but they
// do not move work_s measurably here: at compute-bound's scale every
// buffer is below the kernels' parallel thresholds (32 Ki records to sort
// or merge, 16 Ki to partition), and on a 2-CPU host the parallel kernels
// are only 10-20% faster than the serial ones even in isolation
// (go test -bench Kernel ./internal/sortalgo).
func TestAttributionKernelWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compute-bound workload twice")
	}
	base := computeBound(DefaultSeed)
	big := base
	big.TotalRecords *= 2
	b, s := measure(t, base, 6), measure(t, big, 6)
	for _, name := range []string{"fg.dsort.sort.work_s", "fg.dsort.permute.work_s", "fg.dsort.merge.work_s"} {
		mustRise(t, name, b.layer, s.layer)
	}
	for _, r := range []*report{b, s} {
		if v := r.layer["pdm.dsort.busy_s"]; v != 0 {
			t.Errorf("pdm.dsort.busy_s is %v with a free disk", v)
		}
	}
}

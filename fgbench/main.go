// Command fgbench is the repository's benchmark. It drives the public
// entry points of each layer — cluster.Open, oocsort.GenerateInput,
// cluster.Run around dsort.Run and colsort.RunBuffers, check.Output, and
// the service HTTP handler — from outside the program, times each call
// separately, and reads each layer's own counters. See README.md.
//
//	fgbench --workload device-bound --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). Any failed operation makes the exit status
// non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/fg-go/fg/fg"
)

// DefaultSeed is the seed every figure in README.md was measured with;
// HoldOutSeed is kept back to confirm a later claim on inputs it was not
// tuned on.
const (
	DefaultSeed = 1
	HoldOutSeed = 1729
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(seed int64, seconds time.Duration, trace bool, r *report) error{
	"device-bound": func(seed int64, seconds time.Duration, trace bool, r *report) error {
		return sortRun{params: deviceBound(seed), seconds: seconds, minIters: 2, trace: trace}.run("device-bound", r)
	},
	"compute-bound": func(seed int64, seconds time.Duration, trace bool, r *report) error {
		return sortRun{params: computeBound(seed), seconds: seconds, minIters: 2, trace: trace}.run("compute-bound", r)
	},
	"fgd-small-jobs": func(seed int64, seconds time.Duration, trace bool, r *report) error {
		return fgdRun{seed: seed, seconds: seconds, trace: trace}.run(r)
	},
}

func main() {
	name := flag.String("workload", "device-bound", "workload: device-bound, compute-bound or fgd-small-jobs")
	seed := flag.Int64("seed", DefaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fgbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("fgbench: workload %s, seed %d, %ds, trace %d, GOMAXPROCS %d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	r := newReport()
	if err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1, r); err != nil {
		fmt.Fprintf(os.Stderr, "fgbench: %v\n", err)
		os.Exit(1)
	}
	r.set("peak_rss_mb", peakRSSMB())
	if r.spans != nil {
		path := traceFile(*name, *seed)
		if err := r.spans.writeChrome(path, r.tracer); err != nil {
			fmt.Fprintf(os.Stderr, "fgbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace: %s (%d program events dropped past the tracer limit)\n", path, r.tracer.Dropped())
		r.spans.printTable(os.Stdout)
	}
	out, err := r.result(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// report gathers a run's figures, operation counts and notes.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
	notes             []string
	spans             *spans
	tracer            *fg.Tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) set(name string, v float64)      { r.e2e[name] = v }
func (r *report) setLayer(name string, v float64) { r.layer[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed operation and says why on standard error.
func (r *report) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "fgbench: operation failed: %v\n", err)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result prints every figure with its unit and builds the result line:
// every end-to-end metric untraced, every per-layer metric traced. An
// end-to-end metric the run could not measure is an error; a per-layer one
// reads 0 where its layer is idle.
func (r *report) result(traced bool) (result, error) {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("operations: %d attempted, %d failed (fail_ratio %.4f)\n",
		r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer(), r.layer
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := vals[d.Name]
		if !traced && (!ok || !(v > 0)) && r.failed == 0 {
			return out, fmt.Errorf("end-to-end metric %s was not measured (%v)", d.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("%-40s %14.6f %s\n", d.Name, v, d.Unit)
	}
	if traced {
		for _, d := range workloadLayer() {
			known[d.Name] = true
			if v, ok := vals[d.Name]; ok {
				fmt.Printf("%-40s %14.6f %s (not in the result line)\n", d.Name, v, d.Unit)
			}
		}
	}
	var stray []string
	for k := range vals {
		if !known[k] {
			stray = append(stray, k)
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		return out, fmt.Errorf("metrics measured but not declared: %v", stray)
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// runtimeStats are the process-wide counters the runtime.* metrics are
// differences of.
type runtimeStats struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readRuntime() runtimeStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{cpu: a.cpu - b.cpu, alloc: a.alloc - b.alloc, gcs: a.gcs - b.gcs}
}

// perOp reports the counters as per-operation averages over ops jobs.
func (a runtimeStats) perOp(r *report, ops int) {
	if ops < 1 {
		return
	}
	n := float64(ops)
	r.setLayer("runtime.cpu_s", a.cpu.Seconds()/n)
	r.setLayer("runtime.alloc_mb", float64(a.alloc)/(1<<20)/n)
	r.setLayer("runtime.gc_cycles", float64(a.gcs)/n)
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

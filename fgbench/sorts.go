package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/colsort"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/workload"
)

// deviceBound is the overlap ablations' calibration: the simulated disk
// heads and NICs do most of the work.
func deviceBound(seed int64) harness.Params {
	pr := harness.AblationParams()
	pr.Seed = seed
	return pr
}

// computeBound is the paper-scale machine with devices that cost nothing,
// so wall time is kernels, FG hand-offs, transport copies and GC.
func computeBound(seed int64) harness.Params {
	pr := harness.DefaultParams()
	pr.Disk = pdm.NullDiskModel
	pr.Network = cluster.NullNetworkModel
	pr.Seed = seed
	return pr
}

// sortOp is what one verified sort measured.
type sortOp struct {
	open, generate, run, verify time.Duration
	res                         oocsort.Result // passes plus the sort's pdm and cluster counters
	nets                        []fg.NetworkStats
}

// shape is the part of a sort's outcome that repeats exactly at a fixed
// input: a difference between two sorts of one input is a failure.
func (o sortOp) shape() string {
	var passes []string
	for _, p := range o.res.Passes {
		passes = append(passes, p.Name)
	}
	return fmt.Sprintf("passes=%v disk=%d/%d/%d/%d comm=%d/%d", passes,
		o.res.Disk.ReadOps, o.res.Disk.WriteOps, o.res.Disk.BytesRead, o.res.Disk.BytesWritten,
		o.res.Comm.MessagesSent, o.res.Comm.BytesSent)
}

// runSort performs one sort the way harness.Run does — fresh cluster,
// input generation, the program on every node, verification — but times
// each call into the program separately, with a collection before each
// timed region. With sp non-nil it records the calls as spans under a
// new operation span, and hands the program a tracer and a stats hook.
func runSort(pr harness.Params, prog harness.Program, sp *spans, tr *fg.Tracer, op int64, root int) (sortOp, error) {
	var o sortOp
	spec, err := pr.Spec(workload.Uniform)
	if err != nil {
		return o, err
	}
	opSpan := sp.open("op."+string(prog), op, root)
	defer sp.close(opSpan)

	runtime.GC()
	var c *cluster.Cluster
	o.open, err = sp.timed("cluster.Open", op, opSpan, func() error {
		var err error
		c, err = cluster.Open(cluster.Config{Nodes: pr.Nodes, Disk: pr.Disk, Network: pr.Network})
		return err
	})
	if err != nil {
		return o, err
	}
	defer c.Close()

	runtime.GC()
	var fp records.Fingerprint
	o.generate, err = sp.timed("oocsort.GenerateInput", op, opSpan, func() error {
		var err error
		fp, err = oocsort.GenerateInput(c, spec)
		return err
	})
	if err != nil {
		return o, err
	}
	oocsort.CollectDiskStats(c) // zero the counters, as harness.Run does
	oocsort.CollectCommStats(c)

	var obs *fg.Observe
	var nets netCollector
	if sp != nil {
		obs = &fg.Observe{Tracer: tr, OnStats: nets.onStats}
		defer observeComm(c, tr)()
	}
	results := make([]oocsort.Result, pr.Nodes)
	runtime.GC()
	o.run, err = sp.timed(programCall[prog], op, opSpan, func() error {
		return c.Run(func(n *cluster.Node) error {
			var res oocsort.Result
			var err error
			switch prog {
			case harness.Dsort:
				cfg := dsort.DefaultConfig(spec, pr.Nodes)
				cfg.Parallelism = pr.Parallelism
				cfg.Observe = obs
				res, err = dsort.Run(n, cfg)
			case harness.Csort:
				pl, perr := colsort.NewPlan(spec, pr.Nodes, pr.ColumnsPerNode)
				if perr != nil {
					return perr
				}
				pl.Parallelism = pr.Parallelism
				pl.Observe = obs
				res, err = colsort.RunBuffers(n, pl, colsort.DefaultPipelineBuffers)
			default:
				return fmt.Errorf("fgbench: unknown program %q", prog)
			}
			results[n.Rank()] = res
			return err
		})
	})
	if err != nil {
		return o, err
	}
	o.res = results[0]
	o.res.Disk = oocsort.CollectDiskStats(c)
	o.res.Comm = oocsort.CollectCommStats(c)
	o.nets, _ = nets.result()

	runtime.GC()
	o.verify, err = sp.timed("check.Output", op, opSpan, func() error {
		return check.Output(c, spec, fp)
	})
	if err != nil {
		return o, fmt.Errorf("%s: %w", prog, err)
	}
	return o, nil
}

// programCall names the layer call a program's sort is, in span tables.
var programCall = map[harness.Program]string{
	harness.Dsort: "cluster.Run(dsort.Run)",
	harness.Csort: "cluster.Run(colsort.RunBuffers)",
}

// sortPrograms are run once each per iteration, in this order.
var sortPrograms = []harness.Program{harness.Dsort, harness.Csort}

// wantDiskBytes is the exact disk traffic, read plus written, a program
// must move to sort records records of size bytes on nodes nodes: csort
// reads and writes the data once in each of its three passes; dsort does
// so in its two passes and also reads its splitter samples, one record at
// a time, oversample × (P−1) of them on each node.
func wantDiskBytes(prog string, nodes int, records int64, size int) int64 {
	data := records * int64(size)
	if prog == string(harness.Csort) {
		return 6 * data
	}
	return 4*data + int64(nodes*(nodes-1)*splitter.DefaultOversample*size)
}

// sortRun drives one of the sort workloads for a run.
type sortRun struct {
	params   harness.Params
	seconds  time.Duration
	minIters int  // iterations to run even past seconds
	trace    bool // alternate traced and untraced iterations
}

// run measures iterations until the run's time is spent and puts the
// run's figures and operation counts in report.
func (r sortRun) run(name string, report *report) error {
	pr := r.params
	if err := pr.Warmup(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var sp *spans
	var tr *fg.Tracer
	if r.trace {
		sp = newSpans()
		tr = fg.NewTracer(1 << 17)
	}
	root := sp.open("workload "+name, 0, -1)
	e2e, layers := samples{}, samples{}
	shapes := map[string]string{} // by program and input seed
	traced := map[harness.Program][]float64{}
	untraced := map[harness.Program][]float64{}
	dataBytes := pr.TotalRecords * int64(pr.RecordSize)

	rt := readRuntime()
	start := time.Now()
	iters := 0
	for ; iters < r.minIters || time.Since(start) < r.seconds; iters++ {
		iterStart := time.Now()
		tracedIter := r.trace && iters%2 == 1
		// Every iteration sorts a fresh input, so a run's medians average
		// over inputs; a traced run sorts each input twice, untraced then
		// traced, so trace.overhead compares like with like.
		input := iters
		if r.trace {
			input = iters / 2
		}
		pr.Seed = r.params.Seed*1_000_000 + int64(input) + 1
		ok := true
		for k, prog := range sortPrograms {
			op := int64(iters*len(sortPrograms) + k + 1)
			report.attempted++
			var o sortOp
			var err error
			if tracedIter {
				o, err = runSort(pr, prog, sp, tr, op, root)
			} else {
				opStart := time.Now()
				o, err = runSort(pr, prog, nil, nil, op, root)
				sp.add("op."+string(prog)+".untraced", op, root, opStart, time.Now())
			}
			if want := wantDiskBytes(string(prog), pr.Nodes, pr.TotalRecords, pr.RecordSize); err == nil && o.res.Disk.TotalBytes() != want {
				err = fmt.Errorf("%s moved %d disk bytes, want %d", prog, o.res.Disk.TotalBytes(), want)
			}
			if err == nil {
				key := fmt.Sprint(prog, pr.Seed)
				if first, seen := shapes[key]; !seen {
					shapes[key] = o.shape()
				} else if got := o.shape(); got != first {
					err = fmt.Errorf("%s: counts differ between sorts of one input: %s vs %s", prog, got, first)
				}
			}
			if err != nil {
				report.fail(err)
				ok = false
				continue
			}
			e2e.addDur("setup_s", o.open+o.generate)
			e2e.addDur(string(prog)+"_s", o.run)
			if tracedIter {
				traced[prog] = append(traced[prog], o.run.Seconds())
				layers.addDur("cluster.open_s", o.open)
				layers.addDur("oocsort.generate_s", o.generate)
				layers.addDur("check.verify_s", o.verify)
				addSortLayers(layers, string(prog), pr.Nodes, dataBytes, o.res, o.nets)
			} else {
				untraced[prog] = append(untraced[prog], o.run.Seconds())
			}
		}
		if ok {
			e2e.addDur("job", time.Since(iterStart))
		}
	}
	elapsed := time.Since(start)
	rtEnd := readRuntime()
	sp.close(root)

	m := e2e.medians()
	report.set("setup_s", m["setup_s"])
	report.set("dsort_s", m["dsort_s"])
	report.set("csort_s", m["csort_s"])
	report.set("jobs_per_s", float64(len(e2e["job"]))/elapsed.Seconds())
	report.set("job_p50_s", m["job"])
	report.note("over %.1fs:", elapsed.Seconds())
	for _, k := range []string{"setup_s", "dsort_s", "csort_s", "job"} {
		report.note("  %-8s n=%3d  p25 %.6f  p50 %.6f  p75 %.6f s", k, len(e2e[k]),
			quantile(e2e[k], 0.25), quantile(e2e[k], 0.5), quantile(e2e[k], 0.75))
	}
	if m["csort_s"] > 0 {
		report.note("dsort/csort wall-time ratio %.4f (not gated)", m["dsort_s"]/m["csort_s"])
	}
	if !r.trace {
		return nil
	}
	for k, v := range layers.medians() {
		report.setLayer(k, v)
	}
	rtEnd.sub(rt).perOp(report, iters)
	if u := quantile(untraced[harness.Dsort], 0.5); u > 0 {
		report.setLayer("trace.overhead", quantile(traced[harness.Dsort], 0.5)/u)
	}
	report.spans, report.tracer = sp, tr
	return nil
}

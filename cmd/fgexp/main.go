// Command fgexp regenerates the paper's experiments on the simulated
// cluster: the Figure 8 comparisons of dsort and csort on four key
// distributions and two record sizes, the skewed-input experiment, the
// splitter-balance claim, the I/O-volume claim, the single-linear-pipeline
// ablation (Section VIII), and an overlap ablation that measures what FG's
// pipelining itself buys.
//
// Usage:
//
//	fgexp -exp fig8a,fig8b              # the headline figures
//	fgexp -exp all -records 21 -trials 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/workload"
)

func main() {
	pr, exps, cli, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgexp: %v\n", err)
		os.Exit(1)
	}

	if err := pr.Warmup(); err != nil {
		fmt.Fprintf(os.Stderr, "fgexp: warmup: %v\n", err)
		os.Exit(1)
	}

	// Attach observability after the warmup so its run is not traced.
	finish, err := cli.Observe(&pr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgexp: %v\n", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	run := func(name string, fn func(harness.Params) error) {
		if !all && !want[name] {
			return
		}
		if err := fn(pr); err != nil {
			fmt.Fprintf(os.Stderr, "fgexp: %s: %v\n", name, err)
			_ = finish(err) // flush the trace and black box before exiting
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig8a", func(pr harness.Params) error { return figure8(pr, 16, "Figure 8(a): 16-byte records") })
	run("fig8b", func(pr harness.Params) error { return figure8(pr, 64, "Figure 8(b): 64-byte records") })
	run("skew", skew)
	run("splitters", splitters)
	run("iovolume", iovolume)
	run("linear", linear)
	run("overlap", overlap)
	run("passes", passes)
	run("buffers", bufferSweep)

	if err := finish(nil); err != nil {
		fmt.Fprintf(os.Stderr, "fgexp: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags compiles an fgexp command line: the job flags fill the
// shared CLIFlags' spec, compiled onto harness.DefaultParams. It returns
// the -exp list; the observability flags are left to the returned
// CLIFlags' Observe.
func parseFlags(fs *flag.FlagSet, args []string) (harness.Params, string, *harness.CLIFlags, error) {
	cli := harness.RegisterCLIFlags(fs)
	for name, usage := range map[string]string{
		"verify":         "verify every sort's output",
		"metrics":        "serve Prometheus metrics on this address (host:port, :0 picks a port) to scrape while experiments run",
		"trace-out":      "write a Chrome trace-event JSON file of every run (chrome://tracing, Perfetto)",
		"transport":      "cluster transport: inproc (goroutines and channels) or tcp (real loopback sockets, all ranks in this process)",
		"heartbeat":      "heartbeat interval for peer failure detection; a peer silent for 10 intervals is declared dead and the run aborted (0 = off)",
		"checkpoint-dir": "commit a checkpoint after each pass under this directory and resume from it on restart",
		"supervise":      "run each sort under a supervisor that retries up to this many attempts on peer death or abort, resuming from checkpoints (1 = no supervisor)",
	} {
		fs.Lookup(name).Usage = usage
	}
	exps := fs.String("exp", "fig8a", "comma-separated experiments: fig8a,fig8b,skew,linear,overlap,iovolume,splitters,passes,buffers,all")
	logRecs := fs.Int("records", 20, "log2 of the total record count N")
	fs.IntVar(&cli.Spec.ColumnsPerNode, "cpn", 4, "csort columns per node (S = cpn*P)")
	fs.IntVar(&trialCount, "trials", 1, "runs to average per cell (the paper used 3)")
	if err := fs.Parse(args); err != nil {
		return harness.Params{}, "", nil, err
	}
	cli.Spec.Records = 1 << *logRecs
	pr, err := cli.Params()
	return pr, *exps, cli, err
}

// bufferSweep reproduces the paper's methodological note that "all results
// reported here are for the best choices of buffer sizes": it sweeps
// dsort's run length (which sets pass 1's buffer size and the sorted-run
// length) around the default of perNode/8.
func bufferSweep(pr harness.Params) error {
	perNode := int(pr.TotalRecords) / pr.Nodes
	fmt.Printf("dsort buffer-size sensitivity (run length in records), N=%d, P=%d\n",
		pr.TotalRecords, pr.Nodes)
	for _, div := range []int{32, 16, 8, 4, 2} {
		run := perNode / div
		res, err := pr.RunDsortWith(workload.Uniform, func(cfg *dsort.Config) {
			cfg.RunRecords = run
			cfg.MergeRecords = run / 4
			if cfg.MergeRecords < 1 {
				cfg.MergeRecords = 1
			}
		})
		if err != nil {
			return err
		}
		marker := ""
		if div == 8 {
			marker = "  <- default"
		}
		fmt.Printf("  run=%6d (perNode/%-2d): total %v (pass1 %v, pass2 %v)%s\n",
			run, div, res.Total().Round(1e6), res.Pass("pass1").Round(1e6), res.Pass("pass2").Round(1e6), marker)
	}
	return nil
}

// passes quantifies the paper's pass-coalescing observation (Section III):
// the three-pass csort against the "relatively simple" four-pass version it
// was distilled from.
func passes(pr harness.Params) error {
	fmt.Printf("Pass coalescing (Section III): three-pass vs four-pass csort, N=%d, P=%d\n",
		pr.TotalRecords, pr.Nodes)
	three, err := pr.Run(harness.Csort, workload.Uniform, 0)
	if err != nil {
		return err
	}
	four, err := pr.Run(harness.Csort4, workload.Uniform, 0)
	if err != nil {
		return err
	}
	fmt.Printf("  csort  (3 passes): %v, %d disk bytes\n", three.Total().Round(1e6), three.Disk.TotalBytes())
	fmt.Printf("  csort4 (4 passes): %v, %d disk bytes\n", four.Total().Round(1e6), four.Disk.TotalBytes())
	fmt.Printf("  coalescing saves %.1f%% time and %.1f%% disk I/O\n",
		100*(1-float64(three.Total())/float64(four.Total())),
		100*(1-float64(three.Disk.TotalBytes())/float64(four.Disk.TotalBytes())))
	return nil
}

// trialCount is how many runs each Figure 8 cell averages.
var trialCount = 1

func figure8(pr harness.Params, recSize int, title string) error {
	pr.RecordSize = recSize
	cells, err := pr.Figure8(workload.Distributions, trialCount)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatFigure8(fmt.Sprintf("%s, N=%d, P=%d", title, pr.TotalRecords, pr.Nodes), cells))
	lo, hi := 1.0, 0.0
	for _, c := range cells {
		lo, hi = min(lo, c.Ratio()), max(hi, c.Ratio())
	}
	fmt.Printf("dsort/csort ratio band: %.2f%%-%.2f%% (paper: 74.26%%-85.06%%)\n", 100*lo, 100*hi)
	return nil
}

func skew(pr harness.Params) error {
	cells, err := pr.Figure8(workload.SkewDistributions, trialCount)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatFigure8(
		fmt.Sprintf("Skewed inputs (highly unbalanced pass-1 communication), N=%d, P=%d", pr.TotalRecords, pr.Nodes), cells))
	return nil
}

func splitters(pr harness.Params) error {
	fmt.Printf("Splitter balance (max partition / average; paper claims <= 1.10), N=%d, P=%d\n",
		pr.TotalRecords, pr.Nodes)
	fmt.Printf("%-16s", "distribution")
	factors := []int{8, 16, 32, 64, 128}
	for _, ov := range factors {
		fmt.Printf("  ov=%-4d", ov)
	}
	fmt.Println()
	dists := append(append([]workload.Distribution{}, workload.Distributions...), workload.SkewDistributions...)
	for _, dist := range dists {
		fmt.Printf("%-16s", dist)
		for _, ov := range factors {
			b, err := pr.Balance(dist, ov)
			if err != nil {
				return err
			}
			fmt.Printf("  %-7.3f", b)
		}
		fmt.Println()
	}
	fmt.Printf("(default oversampling factor: %d)\n", splitter.DefaultOversample)
	return nil
}

func iovolume(pr harness.Params) error {
	d, err := pr.Run(harness.Dsort, workload.Uniform, 0)
	if err != nil {
		return err
	}
	c, err := pr.Run(harness.Csort, workload.Uniform, 0)
	if err != nil {
		return err
	}
	data := pr.TotalRecords * int64(pr.RecordSize)
	fmt.Printf("I/O volume (uniform, N=%d, P=%d; data volume %d bytes)\n", pr.TotalRecords, pr.Nodes, data)
	fmt.Printf("  dsort: %12d disk bytes (%.2fx data; 2 passes + sampling)\n",
		d.Disk.TotalBytes(), float64(d.Disk.TotalBytes())/float64(data))
	fmt.Printf("  csort: %12d disk bytes (%.2fx data; 3 passes)\n",
		c.Disk.TotalBytes(), float64(c.Disk.TotalBytes())/float64(data))
	fmt.Printf("  csort/dsort: %.3f (paper: csort performs ~50%% more disk I/O)\n",
		float64(c.Disk.TotalBytes())/float64(d.Disk.TotalBytes()))
	return nil
}

func linear(base harness.Params) error {
	pr := harness.AblationParams()
	pr.Observe = base.Observe
	fmt.Printf("Multiple pipelines vs single linear pipelines (Section VIII), N=%d, P=%d, I/O-bound calibration\n",
		pr.TotalRecords, pr.Nodes)
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Poisson, workload.SkewOneNode} {
		multi, err := pr.Run(harness.Dsort, dist, 0)
		if err != nil {
			return err
		}
		lin, err := pr.Run(harness.DsortLinear, dist, 0)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s dsort %v, dsort-linear %v (linear/multi = %.2fx)\n",
			dist, multi.Total().Round(1e6), lin.Total().Round(1e6),
			float64(lin.Total())/float64(multi.Total()))
	}
	return nil
}

func overlap(base harness.Params) error {
	pr := harness.AblationParams()
	pr.Observe = base.Observe
	fmt.Printf("Overlap ablation (buffer pool 1 serializes each pipeline's stages), N=%d, P=%d, I/O-bound calibration\n",
		pr.TotalRecords, pr.Nodes)
	for _, prog := range []harness.Program{harness.Dsort, harness.Csort} {
		pipelined, err := pr.Run(prog, workload.Uniform, 0)
		if err != nil {
			return err
		}
		serial, err := pr.Run(prog, workload.Uniform, 1)
		if err != nil {
			return err
		}
		fmt.Printf("  %-6s pipelined %v, serialized %v (speedup %.2fx)\n",
			prog, pipelined.Total().Round(1e6), serial.Total().Round(1e6),
			float64(serial.Total())/float64(pipelined.Total()))
	}
	return nil
}

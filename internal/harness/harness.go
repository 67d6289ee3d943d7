// Package harness drives the paper's experiments: it builds simulated
// clusters, generates inputs, runs the sorting programs, verifies their
// output, and formats the comparisons that Figure 8 and the in-text claims
// report.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/colsort"
	"github.com/fg-go/fg/dsort"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/splitter"
	"github.com/fg-go/fg/jobspec"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/pdm"
	"github.com/fg-go/fg/records"
	"github.com/fg-go/fg/supervise"
	"github.com/fg-go/fg/workload"
)

// Params fixes the machine and workload scale of an experiment, standing in
// for the paper's 16-node Beowulf cluster sorting 64 GB.
type Params struct {
	Nodes          int
	TotalRecords   int64
	RecordSize     int
	ColumnsPerNode int // csort geometry; also fixes the PDM block (one column)
	Seed           int64
	Disk           pdm.DiskModel
	Network        cluster.NetworkModel
	Verify         bool

	// Parallelism is handed to every program's config as its intra-buffer
	// parallelism knob (dsort.Config.Parallelism, colsort.Plan.Parallelism):
	// 0 uses all cores, 1 pins the compute kernels to their serial paths.
	// The serial-vs-parallel end-to-end benchmarks flip this and nothing
	// else.
	Parallelism int

	// AutoTune is handed to every program's config
	// (dsort.Config.AutoTune, colsort.Plan.AutoTune): when enabled, a
	// run-time tuner adjusts the compute stages' worker counts and each
	// pipeline's circulating buffers, with Parallelism as the starting
	// point. The zero value keeps the static knobs.
	AutoTune fg.AutoTune

	// Observe, if non-nil, is handed to every program's config, so all of a
	// run's networks share one trace timeline and metrics registry. When it
	// carries a Tracer, the harness additionally records every node's
	// blocking cluster communication as comm events on that timeline, and
	// when it carries a Metrics registry, the cluster's per-node traffic
	// counters are registered with it.
	Observe *fg.Observe

	// Transport selects the cluster transport. The zero value keeps the
	// in-process backend; Kind "tcp" moves inter-rank messages over real
	// sockets, and with Peers set the run spans OS processes — each process
	// hosts Rank, generates that rank's input share, runs that rank's
	// program, and takes part in a distributed verification instead of
	// reading every disk locally.
	Transport cluster.TransportConfig

	// OnCluster, if non-nil, is called with each freshly built cluster
	// before the program runs — the hook chaos tests use to install
	// network fault injectors (cluster.SetNetFault).
	OnCluster func(*cluster.Cluster)

	// Health enables heartbeat failure detection on every cluster the
	// harness builds: a peer silent past the dead threshold aborts the job
	// with cluster.ErrPeerDead instead of stalling it. The zero value
	// disables detection.
	Health cluster.HealthConfig

	// CheckpointDir, if non-empty, roots a fg.DirCheckpoint there and
	// hands it to every program run, so completed passes are saved and a
	// restarted run resumes at the last pass boundary every rank
	// checkpointed. The directory must be shared by all processes of a
	// multi-process job (same path on one machine, for the loopback TCP
	// jobs the tests run).
	CheckpointDir string

	// Telemetry, when Interval > 0, starts the cluster telemetry plane on
	// every cluster the harness builds: each local rank publishes a
	// RankTelemetry record per interval toward the aggregator rank, and
	// pull requests for black boxes and profiles are served. When Collect
	// and Blackbox are unset, the harness fills them from Observe — stage
	// taxonomy, pool occupancy, and knob positions from the metrics
	// registry, stall reports from the watchdog, the flight recorder as
	// the black box. The zero value disables the plane.
	Telemetry cluster.TelemetryConfig

	// OnTelemetry, if non-nil, receives each freshly started telemetry
	// plane — the hook the fleet-view HTTP server
	// (ClusterTelemetry.SetPlane) uses to follow the current cluster.
	OnTelemetry func(*cluster.Telemetry)

	// Supervise, if greater than 1, wraps each Run in supervise.Run with
	// that many total attempts: a run that dies retryably (peer death,
	// abort, comm error) is torn down, backed off, rebuilt, and resumed
	// from checkpoints. 0 or 1 runs the program exactly once, as before.
	Supervise int

	// SuperviseLog, if non-nil, receives the supervisor's per-attempt
	// progress lines.
	SuperviseLog io.Writer

	// OnSuperviseReport, if non-nil, receives the supervisor's structured
	// report when a supervised Run (Supervise > 1) concludes — the soak
	// harness reads attempt counts and per-attempt errors from it instead
	// of scraping the log.
	OnSuperviseReport func(supervise.Report)
}

// ensureTelemetryObserve gives a telemetry-armed run a metrics registry
// when it has none: the fleet collector reads stage taxonomy out of
// Observe.Metrics, so without one a rank's records would carry comm
// counters but no stages and the fleet view could never name its
// bottleneck. The receiver is a value, so the patched bundle is local to
// this run; a caller-supplied bundle is shallow-copied, never mutated.
func (pr *Params) ensureTelemetryObserve() {
	if pr.Telemetry.Interval <= 0 || (pr.Observe != nil && pr.Observe.Metrics != nil) {
		return
	}
	o := fg.Observe{}
	if pr.Observe != nil {
		o = *pr.Observe
	}
	o.Metrics = fg.NewMetricsRegistry()
	pr.Observe = &o
}

// observe wires the Observe bundle into a freshly built cluster
// (Cluster.Observe) and starts the cluster's telemetry plane when Params
// asks for one, filling the fg-side callbacks from Observe. Call the
// returned detach function (safe to repeat) when the run is over: it unhooks
// the comm observers and the collector's watchdog and completion wrappers
// and leaves the cluster's final counters in the registry (the plane
// itself stops with the cluster's Close). Telemetry is best-effort by
// contract, so a plane that fails to start degrades to staleness at the
// aggregator rather than failing the run.
func (pr Params) observe(c *cluster.Cluster) (detach func()) {
	detachCluster := c.Observe(pr.Observe)
	if pr.Telemetry.Interval <= 0 {
		return detachCluster
	}
	cfg := pr.Telemetry
	restore := func() {}
	if cfg.Collect == nil {
		fc := newFleetCollector(pr.Observe)
		cfg.Collect = fc.collectFor(c)
		if cfg.Blackbox == nil {
			cfg.Blackbox = fc.blackbox()
		}
		restore = fc.restore
	}
	t, err := c.StartTelemetry(cfg)
	if err == nil && t != nil && pr.OnTelemetry != nil {
		pr.OnTelemetry(t)
	}
	return func() {
		restore()
		detachCluster()
	}
}

// DefaultParams mirrors the paper's machine at laptop scale: 16 nodes and
// 2^20 records. The disk and network rates are scaled down along with the
// dataset (the paper sorted 64 GB on ~50 MB/s disks and 2 Gb/s Myrinet) so
// that the simulated cluster stays I/O- and communication-bound, as the
// real testbed was; with full-rate models a laptop-sized dataset would be
// compute-bound and the pass structure would not dominate the timings.
func DefaultParams() Params {
	return Params{
		Nodes:          16,
		TotalRecords:   1 << 20,
		RecordSize:     16,
		ColumnsPerNode: 4,
		Seed:           1,
		Disk:           pdm.DiskModel{SeekLatency: 200 * time.Microsecond, BytesPerSecond: 10e6},
		Network:        cluster.NetworkModel{Latency: 30 * time.Microsecond, BytesPerSecond: 50e6},
		Verify:         true,
	}
}

// WithSpec returns base with a job spec's machine, workload and tuning
// applied — the one compile from the job schema to Params that fgd, the
// soak workers, fgsort and fgexp share. Zero spec fields take the spec's
// defaults; base keeps everything the spec does not describe (network
// model, transport, hooks), and its disk model unless the spec carries
// one.
func (base Params) WithSpec(s jobspec.Spec) Params {
	base.Nodes = s.Nodes
	base.TotalRecords = s.Records
	base.RecordSize = s.EffectiveRecordSize()
	base.ColumnsPerNode = s.EffectiveColumnsPerNode()
	base.Seed = s.EffectiveSeed()
	base.Verify = !s.SkipVerify
	base.Parallelism = s.Parallelism
	if s.AutoTune {
		base.AutoTune = fg.DefaultAutoTune()
	}
	if s.Disk != nil {
		base.Disk = s.Disk.Model()
	}
	return base
}

// Warmup runs each program once at reduced scale, unverified and
// untimed, so a process's first measured run does not absorb allocator and
// scheduler warmup.
func (pr Params) Warmup() error {
	pr.TotalRecords /= 8
	pr.ColumnsPerNode = 1 // keep the columnsort matrix tall at reduced N
	pr.Verify = false
	for _, prog := range []Program{Dsort, Csort} {
		if _, err := pr.Run(prog, workload.Uniform, 0); err != nil {
			return err
		}
	}
	return nil
}

// Spec builds the job specification for a distribution under these params.
// The PDM block is one csort column so both programs emit identical striped
// layouts.
func (pr Params) Spec(dist workload.Distribution) (oocsort.Spec, error) {
	s := oocsort.DefaultSpec()
	s.Format = records.NewFormat(pr.RecordSize)
	s.TotalRecords = pr.TotalRecords
	s.Distribution = dist
	s.Seed = pr.Seed
	cols := int64(pr.Nodes * pr.ColumnsPerNode)
	if pr.TotalRecords%cols != 0 {
		return s, fmt.Errorf("harness: %d records do not divide into %d columns", pr.TotalRecords, cols)
	}
	s.RecordsPerBlock = int(pr.TotalRecords / cols)
	return s, nil
}

// NewCluster builds a fresh cluster for one run on the configured
// transport. Close it when the run is over.
func (pr Params) NewCluster() (*cluster.Cluster, error) {
	return cluster.Open(cluster.Config{
		Nodes:     pr.Nodes,
		Disk:      pr.Disk,
		Network:   pr.Network,
		Transport: pr.Transport,
		Health:    pr.Health,
	})
}

// checkpoint opens the configured checkpoint store, or returns nil when
// checkpointing is off.
func (pr Params) checkpoint() (fg.Checkpoint, error) {
	if pr.CheckpointDir == "" {
		return nil, nil
	}
	return fg.NewDirCheckpoint(pr.CheckpointDir)
}

// Program identifies a sorting program the harness can run.
type Program string

const (
	Dsort       Program = "dsort"
	Csort       Program = "csort"
	Csort4      Program = "csort4"
	DsortLinear Program = "dsort-linear"
)

// Run executes one program on a fresh cluster under the given distribution
// and returns node 0's result (barriers make it cluster-representative),
// with traffic totals attached. buffers <= 0 selects each program's
// default pool size. With Supervise > 1 the run is driven by the job
// supervisor: a retryable failure tears the cluster down and a fresh
// attempt resumes from the checkpoints in CheckpointDir.
func (pr Params) Run(prog Program, dist workload.Distribution, buffers int) (oocsort.Result, error) {
	if pr.Supervise <= 1 {
		return pr.runOnce(prog, dist, buffers, nil)
	}
	var res oocsort.Result
	rep := supervise.Run(supervise.Job{
		Name: fmt.Sprintf("%s/%v", prog, dist),
		Run: func(int) ([]string, error) {
			var err error
			res, err = pr.runOnce(prog, dist, buffers, nil)
			return res.Resumed, err
		},
	}, supervise.Policy{
		MaxAttempts: pr.Supervise,
		Observe:     pr.Observe,
		Log:         pr.SuperviseLog,
	})
	if pr.OnSuperviseReport != nil {
		pr.OnSuperviseReport(rep)
	}
	return res, rep.Err
}

// runOnce is one unsupervised attempt: fresh cluster, input, program,
// verification, teardown. mutate, if non-nil, adjusts dsort's config.
func (pr Params) runOnce(prog Program, dist workload.Distribution, buffers int, mutate func(*dsort.Config)) (oocsort.Result, error) {
	pr.ensureTelemetryObserve()
	spec, err := pr.Spec(dist)
	if err != nil {
		return oocsort.Result{}, err
	}
	ck, err := pr.checkpoint()
	if err != nil {
		return oocsort.Result{}, err
	}
	// Collect garbage left by earlier runs before the timed region so one
	// experiment's heap does not tax the next one's pass timings.
	runtime.GC()
	c, err := pr.NewCluster()
	if err != nil {
		return oocsort.Result{}, err
	}
	defer c.Close()
	if pr.OnCluster != nil {
		pr.OnCluster(c)
	}
	fp, err := oocsort.GenerateInput(c, spec)
	if err != nil {
		return oocsort.Result{}, err
	}
	oocsort.CollectDiskStats(c)
	oocsort.CollectCommStats(c)
	detach := pr.observe(c)
	defer detach()

	dcfg := dsort.DefaultConfig(spec, pr.Nodes)
	dcfg.Parallelism, dcfg.AutoTune, dcfg.Observe = pr.Parallelism, pr.AutoTune, pr.Observe
	if buffers > 0 {
		dcfg.Buffers = buffers
	}
	if prog == Dsort {
		dcfg.Checkpoint = ck
	}
	if mutate != nil {
		mutate(&dcfg)
	}
	results := make([]oocsort.Result, pr.Nodes)
	err = c.Run(func(n *cluster.Node) error {
		var res oocsort.Result
		var err error
		switch prog {
		case Dsort:
			res, err = dsort.Run(n, dcfg)
		case DsortLinear:
			res, err = dsort.RunLinear(n, dcfg)
		case Csort, Csort4:
			pl, perr := colsort.NewPlan(spec, pr.Nodes, pr.ColumnsPerNode)
			if perr != nil {
				return perr
			}
			pl.Parallelism = pr.Parallelism
			pl.AutoTune = pr.AutoTune
			pl.Observe = pr.Observe
			pl.Checkpoint = ck
			b := colsort.DefaultPipelineBuffers
			if buffers > 0 {
				b = buffers
			}
			if prog == Csort4 {
				res, err = colsort.RunFourPassBuffers(n, pl, b)
			} else {
				res, err = colsort.RunBuffers(n, pl, b)
			}
		default:
			return fmt.Errorf("harness: unknown program %q", prog)
		}
		results[n.Rank()] = res
		return err
	})
	if err != nil {
		return oocsort.Result{}, err
	}
	if pr.Verify {
		if err := pr.verify(c, spec, fp); err != nil {
			return oocsort.Result{}, fmt.Errorf("harness: %s on %v: %w", prog, dist, err)
		}
	}
	detach() // before the counters reset: the registry keeps the run's totals
	res := results[c.Local()[0].Rank()]
	res.Disk = oocsort.CollectDiskStats(c)
	res.Comm = oocsort.CollectCommStats(c)
	return res, nil
}

// verify checks the sorted output: directly when every rank's disk is in
// this process, collectively (check.DistributedOutput) when the job spans
// processes.
func (pr Params) verify(c *cluster.Cluster, spec oocsort.Spec, fp records.Fingerprint) error {
	if c.AllLocal() {
		return check.Output(c, spec, fp)
	}
	return c.Run(func(n *cluster.Node) error {
		return check.DistributedOutput(n, spec, fp)
	})
}

// Cell is one column pair of Figure 8: dsort and csort on one distribution.
type Cell struct {
	Dist  workload.Distribution
	Dsort oocsort.Result
	Csort oocsort.Result
}

// Ratio returns dsort's total time as a fraction of csort's.
func (c Cell) Ratio() float64 {
	if c.Csort.Total() == 0 {
		return 0
	}
	return float64(c.Dsort.Total()) / float64(c.Csort.Total())
}

// Figure8 runs dsort and csort on every distribution in dists (averaging
// `trials` runs of each, as the paper averages three) and returns one cell
// per distribution.
func (pr Params) Figure8(dists []workload.Distribution, trials int) ([]Cell, error) {
	if trials < 1 {
		trials = 1
	}
	var cells []Cell
	for _, dist := range dists {
		d, err := pr.average(Dsort, dist, trials)
		if err != nil {
			return nil, err
		}
		cs, err := pr.average(Csort, dist, trials)
		if err != nil {
			return nil, err
		}
		cells = append(cells, Cell{Dist: dist, Dsort: d, Csort: cs})
	}
	return cells, nil
}

// average runs a program several times and averages its pass durations.
func (pr Params) average(prog Program, dist workload.Distribution, trials int) (oocsort.Result, error) {
	var acc oocsort.Result
	for t := 0; t < trials; t++ {
		res, err := pr.Run(prog, dist, 0)
		if err != nil {
			return acc, err
		}
		if t == 0 {
			acc = res
			continue
		}
		for i := range acc.Passes {
			acc.Passes[i].Duration += res.Passes[i].Duration
		}
		acc.Disk.Add(res.Disk)
	}
	for i := range acc.Passes {
		acc.Passes[i].Duration /= time.Duration(trials)
	}
	return acc, nil
}

// FormatFigure8 renders cells as the stacked per-pass table of Figure 8.
func FormatFigure8(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s  %-28s  %-28s  %s\n", "distribution", "dsort (per pass)", "csort (per pass)", "dsort/csort")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-16s  %-28s  %-28s  %6.2f%%\n",
			c.Dist, passStack(c.Dsort), passStack(c.Csort), 100*c.Ratio())
	}
	return b.String()
}

func passStack(r oocsort.Result) string {
	parts := make([]string, 0, len(r.Passes)+1)
	for _, p := range r.Passes {
		parts = append(parts, fmt.Sprintf("%s=%s", strings.TrimPrefix(p.Name, "pass"), fmtDur(p.Duration)))
	}
	return fmt.Sprintf("%s (%s)", fmtDur(r.Total()), strings.Join(parts, " "))
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// AblationParams returns the machine calibration for the overlap and
// single-linear-pipeline ablations: fewer simulated nodes and slower
// devices, so that — even with all simulated nodes sharing the host's
// cores — per-node disk, network, and compute costs are comparable and
// the latency hiding under test is what dominates the wall clock, as it
// did on the paper's testbed. The Figure 8 calibration aims instead at
// faithful dsort/csort pass ratios at 16 nodes.
func AblationParams() Params {
	pr := DefaultParams()
	pr.Nodes = 4
	pr.TotalRecords = 1 << 18
	pr.ColumnsPerNode = 2
	pr.Disk = pdm.DiskModel{SeekLatency: 500 * time.Microsecond, BytesPerSecond: 5e6}
	pr.Network = cluster.NetworkModel{Latency: 100 * time.Microsecond, BytesPerSecond: 8e6}
	return pr
}

// Balance reports the partition balance the splitter phase achieves for a
// distribution: the largest partition as a multiple of the average (1.0 is
// perfect). It reproduces the Section V claim that oversampling plus
// extended keys keeps every partition within 10% of the average.
func (pr Params) Balance(dist workload.Distribution, oversample int) (float64, error) {
	spec, err := pr.Spec(dist)
	if err != nil {
		return 0, err
	}
	perNode := int(spec.PerNode(pr.Nodes))
	keys := make([][]uint64, pr.Nodes)
	for n := range keys {
		g := workload.NewGenerator(spec.Format, dist, spec.Seed, uint32(n))
		keys[n] = make([]uint64, perNode)
		for i := range keys[n] {
			keys[n][i] = g.NextKey()
		}
	}
	c := cluster.New(cluster.Config{Nodes: pr.Nodes})
	counts := make([]int64, pr.Nodes)
	countMu := make(chan struct{}, 1)
	countMu <- struct{}{}
	err = c.Run(func(node *cluster.Node) error {
		comm := node.Comm("balance")
		mine := keys[node.Rank()]
		sp, err := splitter.Select(comm, int64(len(mine)), func(idx int64) (uint64, error) {
			return mine[idx], nil
		}, oversample, spec.Seed)
		if err != nil {
			return err
		}
		local := make([]int64, pr.Nodes)
		for i, k := range mine {
			e := records.ExtKey{Key: k, Node: uint32(node.Rank()), Seq: uint64(i)}
			local[splitter.Partition(sp, e)]++
		}
		<-countMu
		for d, v := range local {
			counts[d] += v
		}
		countMu <- struct{}{}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var max int64
	for _, v := range counts {
		if v > max {
			max = v
		}
	}
	avg := float64(pr.TotalRecords) / float64(pr.Nodes)
	return float64(max) / avg, nil
}

// RunDsortWith runs dsort with a configuration derived from the default by
// mutate, on a fresh verified cluster. The buffer-size sensitivity
// experiment uses it to reproduce the paper's methodological note that all
// reported results use "the best choices of buffer sizes".
func (pr Params) RunDsortWith(dist workload.Distribution, mutate func(*dsort.Config)) (oocsort.Result, error) {
	return pr.runOnce(Dsort, dist, 0, mutate)
}

package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/jobspec"
)

// BlackBoxPath is where ObserveCLI dumps the flight recorder when a run
// stalls or panics: a Chrome-trace "black box" of the final moments.
const BlackBoxPath = "fg-blackbox.json"

// ObserveCLI builds the fg.Observe bundle behind the commands' -metrics,
// -trace-out, -status-addr, and -stall-after flags. It returns the bundle
// (nil when every argument is zero, so an unobserved run costs nothing) and
// a finish function taking the run's error; finish prints node 0's
// bottleneck reports, writes the Chrome trace file, dumps the flight
// recorder if the run died on a panic, and stops the HTTP servers.
//
// metricsAddr, when non-empty, is a host:port to serve Prometheus metrics
// and expvar on for the duration of the run (":0" picks a free port).
// traceOut, when non-empty, is the path the Chrome trace-event JSON is
// written to — atomically, via a temp file and rename, so a run killed
// mid-write never leaves a truncated file; load it in chrome://tracing or
// https://ui.perfetto.dev. statusAddr, when non-empty, serves the live
// /status and /status.json endpoints (plus /metrics) on its own address.
// stallAfter, when positive, arms a progress watchdog on every network: a
// stretch of stallAfter with no stage completing a round prints a
// StallReport naming the suspected culprit and dumps the flight recorder
// to BlackBoxPath.
//
// clusterAddr, when non-empty, additionally serves the fleet view —
// /cluster/status.json, /cluster/metrics, /cluster/blackbox, and
// /cluster/profile — on its own address, and the returned
// *ClusterTelemetry (nil otherwise) is to be wired into the run via
// Params.OnTelemetry so the server follows the current cluster's
// telemetry plane. The view fills in only on the process hosting the
// aggregator rank; other ranks' servers answer 503.
//
// Whenever any flag is set, a flight recorder rides along: the last few
// thousand events are retained even when full tracing is off, so the black
// box has something to say.
func ObserveCLI(metricsAddr, traceOut, statusAddr, clusterAddr string, stallAfter time.Duration) (*fg.Observe, *ClusterTelemetry, func(runErr error) error, error) {
	if metricsAddr == "" && traceOut == "" && statusAddr == "" && clusterAddr == "" && stallAfter <= 0 {
		return nil, nil, func(error) error { return nil }, nil
	}
	o := &fg.Observe{}
	var mu sync.Mutex
	var reports []string
	o.OnStats = func(st fg.NetworkStats) {
		// One report per network of node 0; barriers make it representative.
		if !strings.HasSuffix(st.Name, "@0") {
			return
		}
		mu.Lock()
		reports = append(reports, fmt.Sprintf("%s: %s", st.Name, st.Bottleneck()))
		mu.Unlock()
	}
	o.Flight = fg.NewFlightRecorder(0)
	var servers []io.Closer
	closeServers := func() error {
		var err error
		for _, s := range servers {
			if cerr := s.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	if metricsAddr != "" || statusAddr != "" || clusterAddr != "" {
		o.Metrics = fg.NewMetricsRegistry()
	}
	if metricsAddr != "" {
		server, err := o.Metrics.Serve(metricsAddr)
		if err != nil {
			return nil, nil, nil, err
		}
		servers = append(servers, server)
		fmt.Printf("serving metrics on http://%s/metrics (Prometheus) and /debug/vars (expvar)\n", server.Addr())
	}
	if statusAddr != "" && statusAddr != metricsAddr {
		server, err := o.Metrics.Serve(statusAddr)
		if err != nil {
			_ = closeServers()
			return nil, nil, nil, err
		}
		servers = append(servers, server)
		fmt.Printf("serving live status on http://%s/status (text) and /status.json\n", server.Addr())
	} else if statusAddr != "" {
		fmt.Printf("live status shares the metrics address: /status and /status.json\n")
	}
	var ct *ClusterTelemetry
	if clusterAddr != "" {
		var err error
		ct, err = ServeClusterTelemetry(clusterAddr)
		if err != nil {
			_ = closeServers()
			return nil, nil, nil, err
		}
		servers = append(servers, ct)
		fmt.Printf("serving fleet view on http://%s/cluster/status.json and /cluster/metrics\n", ct.Addr())
	}
	if traceOut != "" {
		o.Tracer = fg.NewTracer(1 << 21)
	}
	writeBlackBox := func(why string) {
		err := writeFileAtomic(BlackBoxPath, func(w io.Writer) error {
			return o.Flight.WriteChromeTrace(w)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "black box write failed: %v\n", err)
			return
		}
		fmt.Printf("black box (%s) written to %s: last %d events; load it in chrome://tracing\n",
			why, BlackBoxPath, o.Flight.Len())
	}
	if stallAfter > 0 {
		interval := stallAfter / 4
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		o.Watchdog = &fg.WatchdogConfig{
			Interval:   interval,
			StallAfter: stallAfter,
			OnStall: func(rep fg.StallReport) {
				fmt.Fprint(os.Stderr, rep.String())
				mu.Lock()
				writeBlackBox("stall")
				mu.Unlock()
			},
		}
	}
	finish := func(runErr error) error {
		mu.Lock()
		for _, r := range reports {
			fmt.Println(r)
		}
		var pe *fg.PanicError
		if errors.As(runErr, &pe) {
			writeBlackBox("panic in stage " + pe.Stage)
		}
		mu.Unlock()
		if o.Tracer != nil {
			if err := writeFileAtomic(traceOut, o.Tracer.WriteChromeTrace); err != nil {
				_ = closeServers()
				return err
			}
			fmt.Printf("trace written to %s (%d events", traceOut, len(o.Tracer.Events()))
			if d := o.Tracer.Dropped(); d > 0 {
				fmt.Printf(", %d dropped", d)
			}
			fmt.Println("); load it in chrome://tracing or https://ui.perfetto.dev")
		}
		return closeServers()
	}
	return o, ct, finish, nil
}

// CLIFlags are the flags fgsort and fgexp share. The job flags land in
// Spec — each binary binds its own job flags (program, records, columns,
// ...) to Spec's fields too — and the rest select the transport, the
// resilience stack, and the observability bundle ObserveCLI builds.
type CLIFlags struct {
	Spec jobspec.Spec

	transport, checkpointDir                   string
	metrics, traceOut, statusAddr, clusterAddr string
	heartbeat, telemetryInterval, stallAfter   time.Duration
	supervise                                  int
	verify                                     bool
}

// RegisterCLIFlags declares the shared flags on fs, worded for a single
// run; a binary whose wording differs replaces the Usage of fs.Lookup(name).
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	fs.IntVar(&c.Spec.Nodes, "nodes", 16, "cluster size P")
	fs.Int64Var(&c.Spec.Seed, "seed", 1, "workload seed")
	fs.IntVar(&c.Spec.Parallelism, "parallelism", 0, "intra-buffer kernel workers (0 = all cores, 1 = serial)")
	fs.BoolVar(&c.Spec.AutoTune, "autotune", false, "let a run-time tuner adjust kernel workers and circulating buffers, starting from -parallelism")
	fs.BoolVar(&c.verify, "verify", true, "verify the sorted output")
	fs.StringVar(&c.metrics, "metrics", "", "serve Prometheus metrics on this address (host:port, :0 picks a port) to scrape while the run is in flight")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace-event JSON file of the run (chrome://tracing, Perfetto)")
	fs.StringVar(&c.statusAddr, "status-addr", "", "serve live pipeline health on this address (/status text, /status.json)")
	fs.StringVar(&c.clusterAddr, "cluster-status-addr", "", "serve the fleet view on this address (/cluster/status.json, /cluster/metrics); implies telemetry at -telemetry-interval")
	fs.DurationVar(&c.telemetryInterval, "telemetry-interval", 0, "publish a telemetry record per rank at this interval toward the aggregator rank 0 (0 = off unless -cluster-status-addr is set, then 500ms)")
	fs.DurationVar(&c.stallAfter, "stall-after", 0, "arm a stall watchdog: report and dump a black-box trace after this long with no progress (0 = off)")
	fs.StringVar(&c.transport, "transport", "inproc", "cluster transport: inproc (goroutines and channels) or tcp (real sockets)")
	fs.DurationVar(&c.heartbeat, "heartbeat", 0, "heartbeat interval for peer failure detection; a peer silent for 10 intervals is declared dead and the job aborted (0 = off)")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "commit a checkpoint after each pass under this directory and resume from it on restart (the same directory in every process)")
	fs.IntVar(&c.supervise, "supervise", 1, "run the job under a supervisor that retries up to this many attempts on peer death or abort, resuming from checkpoints (1 = no supervisor)")
	return c
}

// Params compiles Spec onto DefaultParams and applies the transport and
// resilience flags.
func (c *CLIFlags) Params() (Params, error) {
	if c.Spec.Parallelism < 0 {
		return Params{}, fmt.Errorf("-parallelism must be >= 0, got %d", c.Spec.Parallelism)
	}
	spec := c.Spec
	spec.SkipVerify = !c.verify
	pr := DefaultParams().WithSpec(spec)
	switch c.transport {
	case "inproc":
	case "tcp":
		pr.Transport.Kind = cluster.TransportTCP
	default:
		return Params{}, fmt.Errorf("unknown -transport %q (want inproc or tcp)", c.transport)
	}
	if c.heartbeat > 0 {
		pr.Health = cluster.HealthConfig{Interval: c.heartbeat}
	}
	pr.CheckpointDir = c.checkpointDir
	if c.supervise < 1 {
		return Params{}, fmt.Errorf("-supervise must be >= 1, got %d", c.supervise)
	}
	if c.supervise > 1 {
		pr.Supervise = c.supervise
		pr.SuperviseLog = os.Stderr
	}
	return pr, nil
}

// Observe attaches the observability flags' bundle (ObserveCLI) and the
// telemetry plane they ask for to pr, and returns ObserveCLI's finish.
func (c *CLIFlags) Observe(pr *Params) (finish func(runErr error) error, err error) {
	obs, ct, finish, err := ObserveCLI(c.metrics, c.traceOut, c.statusAddr, c.clusterAddr, c.stallAfter)
	if err != nil {
		return nil, err
	}
	pr.Observe = obs
	iv := c.telemetryInterval
	if c.clusterAddr != "" && iv <= 0 {
		iv = 500 * time.Millisecond
	}
	if iv > 0 {
		pr.Telemetry = cluster.TelemetryConfig{Interval: iv}
		pr.OnTelemetry = ct.SetPlane
	}
	return finish, nil
}

// writeFileAtomic writes via a temp file in the target's directory and
// renames it into place, so readers never see a partial file and a killed
// writer never leaves a truncated one.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

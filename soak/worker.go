package soak

// The worker is one rank of a soak run: a process the driver spawned with
// FGSOAK_WORKER_CONFIG pointing at a per-rank config file. It builds a
// harness.Params for the scenario, installs the faults the plan assigns to
// its rank, runs the program under the supervisor, polices its own goroutine
// shutdown, and prints one machine-readable FGSOAK_RESULT line on stdout for
// the driver to collect. Both cmd/fgsoak and the soak test binary route
// through WorkerMain before doing anything else, so the re-exec'd image is
// whatever image the driver itself runs from — the same trick the harness's
// chaos tests play with go test's binary.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/check"
	"github.com/fg-go/fg/internal/faultinject"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/supervise"
	"github.com/fg-go/fg/workload"
)

// WorkerEnv is the environment variable that routes a process into
// WorkerMain: its value is the path to a WorkerConfig JSON file.
const WorkerEnv = "FGSOAK_WORKER_CONFIG"

// ResultPrefix tags the one stdout line a worker prints for the driver.
const ResultPrefix = "FGSOAK_RESULT:"

// TelemetryPrefix tags the stdout line rank 0 prints, as soon as its
// fleet-view HTTP server is listening, with that server's address — the
// driver scrapes /cluster/status.json there for the whole trial.
const TelemetryPrefix = "FGSOAK_TELEMETRY:"

// Worker exit codes, distinct from go test's own.
const (
	ExitConfigError = 2 // bad or unreadable worker config
	ExitRunError    = 4 // the job failed after all attempts
	ExitLeak        = 5 // the job succeeded but goroutines leaked
)

// WorkerConfig is everything one rank's process needs, written by the
// driver, read by WorkerMain.
type WorkerConfig struct {
	// Scenario is the full plan, inlined so a worker needs no second file.
	Scenario Scenario `json:"scenario"`
	// Rank is this process's rank.
	Rank int `json:"rank"`
	// Peers maps rank to listen address.
	Peers []string `json:"peers"`
	// CheckpointDir is the job's shared checkpoint directory ("" = off).
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// EnableKills arms this process's kill-op faults. The driver sets it
	// on initial spawns and clears it on replacements, so a resurrected
	// rank does not die the same death forever.
	EnableKills bool `json:"enable_kills"`
}

// WorkerResult is the structured outcome a worker prints after ResultPrefix.
type WorkerResult struct {
	Rank     int      `json:"rank"`
	OK       bool     `json:"ok"`
	Error    string   `json:"error,omitempty"`
	Attempts int      `json:"attempts"`
	Resumed  []string `json:"resumed,omitempty"`

	Passes  []PassReport `json:"passes,omitempty"`
	TotalMS float64      `json:"total_ms"`
	// Bottleneck names the longest pass — where the run spent its time.
	Bottleneck string `json:"bottleneck,omitempty"`

	// DeadRanks lists peers this process's failure detector declared dead;
	// DeathDetectMS is the longest silence that preceded a declaration —
	// the detection latency the heartbeat configuration bought.
	DeadRanks     []int   `json:"dead_ranks,omitempty"`
	DeathDetectMS float64 `json:"death_detect_ms,omitempty"`

	DiskReadBytes    int64 `json:"disk_read_bytes"`
	DiskWriteBytes   int64 `json:"disk_write_bytes"`
	CommBytesSent    int64 `json:"comm_bytes_sent"`
	CommMessagesSent int64 `json:"comm_messages_sent"`
	Reconnects       int64 `json:"reconnects"`

	LeakedGoroutines int `json:"leaked_goroutines"`
}

// PassReport is one pass's wall clock in milliseconds.
type PassReport struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// IsWorker reports whether this process was spawned as a soak worker.
func IsWorker() bool { return os.Getenv(WorkerEnv) != "" }

// WorkerMain runs this process as its configured rank and returns the
// process exit code. Call it from main (or TestMain) before anything else
// when IsWorker() is true.
func WorkerMain() int {
	cfg, err := loadWorkerConfig(os.Getenv(WorkerEnv))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgsoak worker: %v\n", err)
		return ExitConfigError
	}
	if dir := os.Getenv(CaptureEnv); dir != "" {
		defer captureFrames(dir)()
	}
	return runWorker(cfg)
}

func loadWorkerConfig(path string) (WorkerConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return WorkerConfig{}, err
	}
	var cfg WorkerConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return WorkerConfig{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return WorkerConfig{}, err
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Scenario.Nodes || len(cfg.Peers) != cfg.Scenario.Nodes {
		return WorkerConfig{}, fmt.Errorf("%s: rank %d / %d peers inconsistent with %d ranks",
			path, cfg.Rank, len(cfg.Peers), cfg.Scenario.Nodes)
	}
	return cfg, nil
}

// workerParams compiles the scenario onto this rank's harness.Params: the
// shared job-spec compile over a zero base (soak ranks use no network
// model), plus the TCP transport, checkpoint directory, failure detector,
// telemetry interval, and supervisor the soak-only fields ask for.
func workerParams(cfg WorkerConfig) harness.Params {
	s := cfg.Scenario
	pr := harness.Params{
		Transport: cluster.TransportConfig{
			Kind:        cluster.TransportTCP,
			Peers:       cfg.Peers,
			Rank:        cfg.Rank,
			DialTimeout: 30 * time.Second,
		},
		CheckpointDir: cfg.CheckpointDir,
	}.WithSpec(s.Spec)
	if h := s.Heartbeat; h != nil {
		pr.Health = cluster.HealthConfig{
			Interval:     time.Duration(h.IntervalMS) * time.Millisecond,
			SuspectAfter: time.Duration(h.SuspectAfterMS) * time.Millisecond,
			DeadAfter:    time.Duration(h.DeadAfterMS) * time.Millisecond,
			StartupGrace: time.Duration(h.StartupGraceMS) * time.Millisecond,
		}
	}
	if tl := s.Telemetry; tl != nil {
		// Every rank publishes; the registry gives the records their stage
		// taxonomy.
		pr.Observe = &fg.Observe{Metrics: fg.NewMetricsRegistry()}
		pr.Telemetry = cluster.TelemetryConfig{
			Interval:   time.Duration(tl.IntervalMS) * time.Millisecond,
			StaleAfter: time.Duration(tl.StaleAfterMS) * time.Millisecond,
		}
	}
	if n := s.EffectiveMaxAttempts(); n > 1 {
		pr.Supervise = n
		pr.SuperviseLog = os.Stderr
	}
	return pr
}

func runWorker(cfg WorkerConfig) int {
	s := cfg.Scenario
	pr := workerParams(cfg)
	var ct *harness.ClusterTelemetry
	if s.Telemetry != nil && cfg.Rank == 0 {
		// Rank 0 — the aggregator, the one rank no scenario may kill —
		// serves the fleet view and tells the driver where to scrape it.
		served, err := harness.ServeClusterTelemetry("127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fgsoak worker: fleet view server: %v\n", err)
			return ExitConfigError
		}
		ct = served
		pr.OnTelemetry = ct.SetPlane
		fmt.Printf("%s%s\n", TelemetryPrefix, ct.Addr())
	}

	res := WorkerResult{Rank: cfg.Rank, Attempts: 1}
	var rmu sync.Mutex // guards res fields the death hook touches

	// The supervisor's report carries attempt counts and per-attempt errors;
	// the driver reads them from the result line instead of scraping logs.
	pr.OnSuperviseReport = func(rep supervise.Report) {
		rmu.Lock()
		res.Attempts = len(rep.Attempts)
		rmu.Unlock()
	}

	spec, err := pr.Spec(workload.Uniform) // distribution irrelevant to the names
	if err != nil {
		fmt.Fprintf(os.Stderr, "fgsoak worker: %v\n", err)
		return ExitConfigError
	}
	faults := newFaultSet(s, cfg, spec)
	defer faults.stop()

	pr.OnCluster = func(c *cluster.Cluster) {
		c.OnPeerDeath(func(rank int, err error) {
			rmu.Lock()
			defer rmu.Unlock()
			res.DeadRanks = append(res.DeadRanks, rank)
			var pde *cluster.PeerDeathError
			if errors.As(err, &pde) {
				if ms := float64(pde.Silence) / 1e6; ms > res.DeathDetectMS {
					res.DeathDetectMS = ms
				}
			}
		})
		faults.install(c)
	}

	run, err := pr.Run(harness.Program(s.Program), s.Dist(), s.Buffers)
	faults.stop() // churn goroutines must be joined before the leak check
	ct.Close()    // and so must the fleet-view server's accept loop

	rmu.Lock()
	res.OK = err == nil
	if err != nil {
		res.Error = err.Error()
	}
	fillResult(&res, run)
	if leaked := check.LeakedGoroutines(5 * time.Second); len(leaked) > 0 {
		res.LeakedGoroutines = len(leaked)
		fmt.Fprintf(os.Stderr, "fgsoak worker rank %d leaked %d goroutine(s):\n%s\n",
			cfg.Rank, len(leaked), strings.Join(leaked, "\n\n"))
	}
	line, merr := json.Marshal(res)
	rmu.Unlock()
	if merr == nil {
		fmt.Printf("%s%s\n", ResultPrefix, line)
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "fgsoak worker rank %d: %v\n", cfg.Rank, err)
		return ExitRunError
	case res.LeakedGoroutines > 0:
		return ExitLeak
	}
	return 0
}

func fillResult(res *WorkerResult, run oocsort.Result) {
	var longest time.Duration
	for _, p := range run.Passes {
		res.Passes = append(res.Passes, PassReport{Name: p.Name, MS: float64(p.Duration) / 1e6})
		if p.Duration > longest {
			longest = p.Duration
			res.Bottleneck = p.Name
		}
	}
	res.TotalMS = float64(run.Total()) / 1e6
	res.Resumed = run.Resumed
	res.DiskReadBytes = run.Disk.BytesRead
	res.DiskWriteBytes = run.Disk.BytesWritten
	res.CommBytesSent = run.Comm.BytesSent
	res.CommMessagesSent = run.Comm.MessagesSent
	res.Reconnects = run.Comm.Reconnects
}

// faultSet compiles a scenario's faults for one rank onto the injection
// seams. Injectors are created once per process — not per attempt — so a
// fail-N budget spans the supervisor's retries: the drop that failed
// attempt 1 is spent, and attempt 2 runs clean, which is the point.
type faultSet struct {
	s       Scenario
	rank    int
	attempt int

	// diskHooks are per-fault candidate filters on this rank's disk ops.
	diskHooks []func(op, name string, off int64) error
	// netHook is the wire-level fault hook, nil if no net fault targets us.
	netHook cluster.NetFaultHook
	// partitions are churn plans every process applies (each process
	// decides its own receiver view, as a real partition would).
	partitions []Fault

	mu    sync.Mutex
	stops []func()
}

func newFaultSet(s Scenario, cfg WorkerConfig, spec oocsort.Spec) *faultSet {
	fs := &faultSet{s: s, rank: cfg.Rank}
	scoped := func(f Fault) []string {
		if f.File != "" {
			// Scenario files name job files by role; resolve through the
			// spec so a renamed job file cannot silently unscope a fault.
			switch f.File {
			case "input":
				return []string{spec.InputName}
			case "output":
				return []string{spec.OutputName}
			}
			return []string{f.File}
		}
		return nil
	}
	for _, f := range s.Faults {
		switch f.Kind {
		case FaultKillOp:
			if f.Rank != cfg.Rank || !cfg.EnableKills {
				continue
			}
			inj := faultinject.New(faultinject.Config{KillOn: f.OpCount})
			fs.diskHooks = append(fs.diskHooks, inj.DiskHook(scoped(f)...))
		case FaultDiskSlow:
			if f.Rank != cfg.Rank && f.Rank != -1 {
				continue
			}
			inj := faultinject.New(faultinject.Config{
				Latency: time.Duration(f.LatencyUS) * time.Microsecond,
			})
			fs.diskHooks = append(fs.diskHooks, inj.DiskHook(scoped(f)...))
		case FaultNetDrop:
			if f.Rank != cfg.Rank {
				continue
			}
			inj := faultinject.New(faultinject.Config{FailN: f.DropN, Seed: s.EffectiveSeed()})
			fs.netHook = inj.NetHook(cluster.NetFaultDrop, f.MinBytes)
		case FaultPartition:
			fs.partitions = append(fs.partitions, f)
		}
	}
	return fs
}

// install wires the compiled faults into a freshly built cluster. Called
// once per attempt; scheduled faults (partition churn) fire only on the
// first attempt — the retry is supposed to find better weather.
func (fs *faultSet) install(c *cluster.Cluster) {
	fs.attempt++
	if len(fs.diskHooks) > 0 {
		hooks := fs.diskHooks
		combined := func(op, name string, off int64) error {
			for _, h := range hooks {
				if err := h(op, name, off); err != nil {
					return err
				}
			}
			return nil
		}
		for _, n := range c.Local() {
			n.Disk.SetFault(combined)
		}
	}
	if fs.netHook != nil {
		c.SetNetFault(fs.netHook)
	}
	if fs.attempt == 1 {
		for _, f := range fs.partitions {
			f := f
			timer := time.AfterFunc(time.Duration(f.AfterMS)*time.Millisecond, func() {
				stop := faultinject.PartitionChurn(c,
					f.Rank,
					time.Duration(f.DownMS)*time.Millisecond,
					time.Duration(f.UpMS)*time.Millisecond,
					f.Cycles)
				fs.mu.Lock()
				fs.stops = append(fs.stops, stop)
				fs.mu.Unlock()
			})
			fs.mu.Lock()
			fs.stops = append(fs.stops, func() { timer.Stop() })
			fs.mu.Unlock()
		}
	}
}

// stop cancels pending fault timers and joins churn goroutines. Idempotent.
func (fs *faultSet) stop() {
	fs.mu.Lock()
	stops := fs.stops
	fs.stops = nil
	fs.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

package soak

// The driver side of a soak run: reserve one loopback port per rank, write
// per-rank worker configs, spawn every rank as a real OS process of this
// same binary, schedule the driver-side faults (kill -9 by wall clock,
// replacement spawns), and collect each rank's FGSOAK_RESULT line into a
// structured trial report. The replacement-spawn sequencing follows the
// harness's kill-chaos test: a replacement joins only after rank 0's
// supervisor has logged a failed attempt, by which point the failed
// attempt's cluster — listener included — is fully closed, so the new
// process can only ever join the retry.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
)

// Options parameterize a driver run.
type Options struct {
	// RunDir roots the run's artifacts (per-rank configs, captured output,
	// checkpoints). Empty creates a temporary directory, removed afterward
	// unless KeepRunDir is set.
	RunDir string
	// KeepRunDir preserves the run directory for post-mortems.
	KeepRunDir bool
	// WorkerArgs are extra argv for spawned workers — the soak tests pass
	// "-test.run=^$" so a re-exec'd test binary runs no tests of its own.
	WorkerArgs []string
	// Log receives human progress lines; nil discards them.
	Log io.Writer
	// Trials overrides the scenario's trial count when positive.
	Trials int
}

func (o Options) log() io.Writer {
	if o.Log == nil {
		return io.Discard
	}
	return o.Log
}

// restartWait bounds how long the driver waits for rank 0's supervisor to
// log a failed attempt before spawning a replacement anyway (a backstop; in
// a healthy run the marker arrives within the death-detection latency).
const restartWait = 20 * time.Second

// Run executes every trial of the scenario and returns the assembled
// report. Trial failures are recorded in the report, not returned as
// errors; the error return is for the driver's own failures (unwritable
// run dir, unspawnable workers).
func Run(s Scenario, opt Options) (RunReport, error) {
	if err := s.Validate(); err != nil {
		return RunReport{}, err
	}
	trials := s.trials()
	if opt.Trials > 0 {
		trials = opt.Trials
	}
	runDir := opt.RunDir
	if runDir == "" {
		dir, err := os.MkdirTemp("", "fgsoak-"+s.Name+"-")
		if err != nil {
			return RunReport{}, err
		}
		runDir = dir
		if !opt.KeepRunDir {
			defer os.RemoveAll(dir)
		}
	} else if err := os.MkdirAll(runDir, 0o755); err != nil {
		return RunReport{}, err
	}

	rep := RunReport{
		Scenario:    s.Name,
		Description: s.Description,
		Program:     s.Program,
		Ranks:       s.Nodes,
		Records:     s.Records,
		RecordSize:  s.EffectiveRecordSize(),
		OK:          true,
	}
	for t := 1; t <= trials; t++ {
		fmt.Fprintf(opt.log(), "soak: %s trial %d/%d starting (%d ranks, %s, %d records)\n",
			s.Name, t, trials, s.Nodes, s.Program, s.Records)
		tr, err := runTrial(s, opt, runDir, t)
		if err != nil {
			return rep, err
		}
		rep.Trials = append(rep.Trials, tr)
		if !tr.OK {
			rep.OK = false
		}
		fmt.Fprintf(opt.log(), "soak: %s trial %d/%d %s in %.1fs (retries=%d restarts=%d reconnects=%d death=%.0fms)\n",
			s.Name, t, trials, verdict(tr.OK), tr.WallMS/1e3, tr.Retries, tr.Restarts, tr.Reconnects, tr.DeathDetectMS)
	}
	return rep, nil
}

func verdict(ok bool) string {
	if ok {
		return "PASSED"
	}
	return "FAILED"
}

// workerProc is one spawned rank process. Both output buffers are
// markWatches — locked writers — because the driver reads rank 0's stdout
// mid-run to find the fleet-view address while the process is still
// streaming into it.
type workerProc struct {
	rank   int
	cmd    *exec.Cmd
	stdout *markWatch
	stderr io.Writer // the supervisor watch for rank 0, plain otherwise
	errBuf *markWatch
}

type procExit struct {
	proc *workerProc
	code int // -1 = killed by signal
}

func runTrial(s Scenario, opt Options, runDir string, trial int) (TrialReport, error) {
	tr := TrialReport{Trial: trial}
	trialDir := filepath.Join(runDir, fmt.Sprintf("trial%d", trial))
	if err := os.MkdirAll(trialDir, 0o755); err != nil {
		return tr, err
	}
	ckptDir := ""
	if s.Checkpoint {
		ckptDir = filepath.Join(trialDir, "ckpt")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return tr, err
		}
	}
	peers, err := reservePorts(s.Nodes)
	if err != nil {
		return tr, err
	}

	// Rank 0's stderr is watched for the supervisor's "failed" attempt
	// lines: each one marks a fully torn-down attempt, the safe moment to
	// admit a replacement process.
	watch := newMarkWatch(": failed")

	exitc := make(chan procExit, 4*s.Nodes)
	var spawnMu sync.Mutex
	spawn := func(rank int, kills bool, generation int) (*workerProc, error) {
		cfg := WorkerConfig{
			Scenario:      s,
			Rank:          rank,
			Peers:         peers,
			CheckpointDir: ckptDir,
			EnableKills:   kills,
		}
		raw, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return nil, err
		}
		cfgPath := filepath.Join(trialDir, fmt.Sprintf("rank%d.gen%d.json", rank, generation))
		if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
			return nil, err
		}
		p := &workerProc{rank: rank, stdout: newMarkWatch("")}
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		p.cmd = exec.Command(exe, opt.WorkerArgs...)
		p.cmd.Dir = trialDir
		p.cmd.Stdout = p.stdout
		if rank == 0 {
			p.stderr = watch
			p.errBuf = watch
		} else {
			b := newMarkWatch("")
			p.stderr = b
			p.errBuf = b
		}
		p.cmd.Stderr = p.stderr
		p.cmd.Env = append(os.Environ(), WorkerEnv+"="+cfgPath)
		if err := p.cmd.Start(); err != nil {
			return nil, fmt.Errorf("spawn rank %d: %w", rank, err)
		}
		go func() {
			err := p.cmd.Wait()
			code := 0
			if err != nil {
				code = p.cmd.ProcessState.ExitCode()
			}
			exitc <- procExit{proc: p, code: code}
		}()
		return p, nil
	}

	start := time.Now()
	generation := make([]int, s.Nodes)
	live := make(map[int]*workerProc, s.Nodes)
	for r := 0; r < s.Nodes; r++ {
		p, err := spawn(r, true, 0)
		if err != nil {
			killAll(live)
			return tr, err
		}
		live[r] = p
	}
	defer func() { killAll(live) }()

	// With telemetry in the plan, scrape rank 0's fleet view for the whole
	// trial; the verdict below requires at least one scrape in which every
	// rank reported fresh — "the fleet is visible" is part of what a
	// telemetry-enabled scenario proves.
	var probe *fleetProbe
	if s.Telemetry != nil {
		probe = startFleetProbe(s, live[0].stdout)
		defer probe.stop()
	}

	// Driver-side kill schedule: kill-after faults fire by wall clock.
	var timers []*time.Timer
	for _, f := range s.Faults {
		if f.Kind != FaultKillAfter {
			continue
		}
		rank := f.Rank
		timers = append(timers, time.AfterFunc(time.Duration(f.AfterMS)*time.Millisecond, func() {
			spawnMu.Lock()
			p := live[rank]
			spawnMu.Unlock()
			if p != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
			}
		}))
	}
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	// One restart credit per restart-enabled kill fault, per rank.
	restarts := make(map[int]int)
	for _, f := range s.Faults {
		if (f.Kind == FaultKillOp || f.Kind == FaultKillAfter) && f.Restart {
			restarts[f.Rank]++
		}
	}

	finalCode := make(map[int]int)
	deadline := time.After(s.Timeout())
	for len(finalCode) < s.Nodes {
		select {
		case e := <-exitc:
			rank := e.proc.rank
			if e.code == -1 && restarts[rank] > 0 {
				// Killed by signal with a restart credit: spawn the
				// replacement once a surviving supervisor has logged the
				// failed attempt (or after the backstop delay).
				restarts[rank]--
				tr.Restarts++
				base := watch.Count()
				fmt.Fprintf(opt.log(), "soak: %s trial %d rank %d killed; waiting to admit replacement\n",
					s.Name, trial, rank)
				watch.WaitAbove(base, restartWait)
				generation[rank]++
				p, err := spawn(rank, false, generation[rank])
				if err != nil {
					return tr, err
				}
				spawnMu.Lock()
				live[rank] = p
				spawnMu.Unlock()
				continue
			}
			finalCode[rank] = e.code
			spawnMu.Lock()
			delete(live, rank)
			spawnMu.Unlock()
			if e.code != 0 {
				fmt.Fprintf(opt.log(), "soak: %s trial %d rank %d exited %d\nstderr:\n%s\n",
					s.Name, trial, rank, e.code, tail(e.proc.errBuf.String(), 2000))
			}
			// Keep the stdout for result parsing below.
			tr.Workers = append(tr.Workers, parseWorkerResult(e.proc, e.code))
		case <-deadline:
			tr.OK = false
			tr.Error = fmt.Sprintf("trial timed out after %v with %d/%d ranks unfinished",
				s.Timeout(), s.Nodes-len(finalCode), s.Nodes)
			killAll(live)
			if probe != nil {
				fleet := probe.stop()
				tr.Fleet = &fleet
			}
			tr.WallMS = float64(time.Since(start)) / 1e6
			return tr, nil
		}
	}
	tr.WallMS = float64(time.Since(start)) / 1e6
	tr.finish(finalCode)
	if probe != nil {
		fleet := probe.stop()
		tr.Fleet = &fleet
		fmt.Fprintf(opt.log(), "soak: %s trial %d fleet view: %d/%d scrapes saw every rank fresh (%s)\n",
			s.Name, trial, fleet.Good, fleet.Samples, fleet.Bottleneck)
		if fleet.Good == 0 && tr.OK {
			// The job passed but the fleet was never fully visible: a
			// telemetry regression, and exactly what this assertion is for.
			tr.OK = false
			tr.Error = fmt.Sprintf("telemetry: no fleet scrape ever showed every rank reporting fresh (%d scrapes, last diagnosis %q)",
				fleet.Samples, fleet.Diagnosis)
		}
	}
	return tr, nil
}

// fleetProbe scrapes rank 0's fleet view for the duration of one trial. It
// first watches rank 0's stdout for the TelemetryPrefix line naming the
// server address, then polls /cluster/status.json. A scrape is good when
// every rank has reported, fresh, and none is declared dead — kill windows
// and restarts naturally produce bad scrapes, so the trial assertion is
// "at least one good scrape", not "all good".
type fleetProbe struct {
	ranks int
	out   *markWatch
	stopc chan struct{}
	done  chan struct{}
	once  sync.Once

	mu  sync.Mutex
	rep FleetReport
}

func startFleetProbe(s Scenario, rank0Stdout *markWatch) *fleetProbe {
	p := &fleetProbe{
		ranks: s.Nodes,
		out:   rank0Stdout,
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *fleetProbe) run() {
	defer close(p.done)
	var addr string
	for addr == "" {
		select {
		case <-p.stopc:
			return
		case <-time.After(50 * time.Millisecond):
		}
		addr = telemetryAddr(p.out.String())
	}
	p.mu.Lock()
	p.rep.Addr = addr
	p.mu.Unlock()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.stopc:
			return
		case <-time.After(100 * time.Millisecond):
		}
		st, err := scrapeFleet(client, addr)
		if err != nil {
			continue // between attempts, or before the first cluster: 503s
		}
		good := len(st.Ranks) == p.ranks
		for _, rs := range st.Ranks {
			if !rs.Reported || rs.Stale || rs.Dead {
				good = false
			}
		}
		p.mu.Lock()
		p.rep.Samples++
		if good {
			p.rep.Good++
			p.rep.Bottleneck = st.Bottleneck.String()
		}
		p.rep.Diagnosis = st.Diagnosis
		p.mu.Unlock()
	}
}

// stop ends the probe and returns the accumulated report; idempotent.
func (p *fleetProbe) stop() FleetReport {
	p.once.Do(func() { close(p.stopc) })
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rep
}

// telemetryAddr extracts the fleet-view address from rank 0's stdout, once
// the full marker line (newline included) has streamed in.
func telemetryAddr(out string) string {
	i := strings.Index(out, TelemetryPrefix)
	if i < 0 {
		return ""
	}
	rest := out[i+len(TelemetryPrefix):]
	j := strings.IndexByte(rest, '\n')
	if j < 0 {
		return ""
	}
	return strings.TrimSpace(rest[:j])
}

func scrapeFleet(client *http.Client, addr string) (cluster.ClusterStatus, error) {
	var st cluster.ClusterStatus
	resp, err := client.Get("http://" + addr + "/cluster/status.json")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("fleet view answered %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// parseWorkerResult extracts the FGSOAK_RESULT line from a finished
// worker's stdout; a missing line on a zero exit is itself a failure.
func parseWorkerResult(p *workerProc, code int) WorkerResult {
	for _, line := range strings.Split(p.stdout.String(), "\n") {
		if !strings.HasPrefix(line, ResultPrefix) {
			continue
		}
		var res WorkerResult
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, ResultPrefix)), &res); err == nil {
			return res
		}
	}
	return WorkerResult{
		Rank:  p.rank,
		OK:    false,
		Error: fmt.Sprintf("no %s line on stdout (exit %d)", ResultPrefix, code),
	}
}

// finish derives the trial verdict and rollups from the per-rank results.
func (tr *TrialReport) finish(codes map[int]int) {
	tr.OK = true
	for rank, code := range codes {
		if code != 0 {
			tr.OK = false
			if tr.Error == "" {
				tr.Error = fmt.Sprintf("rank %d exited %d", rank, code)
			}
		}
	}
	for _, w := range tr.Workers {
		if !w.OK || w.LeakedGoroutines > 0 {
			tr.OK = false
			if tr.Error == "" {
				tr.Error = fmt.Sprintf("rank %d: %s", w.Rank, w.Error)
			}
		}
		if w.Attempts > 1 {
			tr.Retries += w.Attempts - 1
		}
		tr.Reconnects += w.Reconnects
		tr.Deaths += len(w.DeadRanks)
		if w.DeathDetectMS > tr.DeathDetectMS {
			tr.DeathDetectMS = w.DeathDetectMS
		}
		if w.Rank == 0 {
			tr.Bottleneck = w.Bottleneck
			tr.Resumed = w.Resumed
			tr.SortMS = w.TotalMS
		}
	}
}

func killAll(live map[int]*workerProc) {
	for _, p := range live {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
		}
	}
}

// reservePorts allocates one loopback address per rank by binding and
// releasing ephemeral listeners — the same reserve-then-race pattern the
// chaos tests use; the window between Close and the worker's bind is
// microscopic on loopback.
func reservePorts(n int) ([]string, error) {
	peers := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		peers[i] = ln.Addr().String()
		ln.Close()
	}
	return peers, nil
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n:]
}

// markWatch is an io.Writer that accumulates output and counts occurrences
// of a marker substring as they stream in, waking waiters — the driver's
// window into a worker's supervisor progress.
type markWatch struct {
	mu      sync.Mutex
	b       bytes.Buffer
	marker  string
	scanned int // bytes of b already counted
	count   int
	bump    chan struct{} // closed and replaced on every count change
}

func newMarkWatch(marker string) *markWatch {
	return &markWatch{marker: marker, bump: make(chan struct{})}
}

func (w *markWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.b.Write(p)
	if w.marker == "" {
		return len(p), nil
	}
	s := w.b.String()
	for {
		i := strings.Index(s[w.scanned:], w.marker)
		if i < 0 {
			break
		}
		w.scanned += i + len(w.marker)
		w.count++
		close(w.bump)
		w.bump = make(chan struct{})
	}
	return len(p), nil
}

func (w *markWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// Count returns how many times the marker has appeared.
func (w *markWatch) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// WaitAbove blocks until the marker count exceeds base or the timeout
// elapses; it reports whether the count moved.
func (w *markWatch) WaitAbove(base int, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		w.mu.Lock()
		c, bump := w.count, w.bump
		w.mu.Unlock()
		if c > base {
			return true
		}
		select {
		case <-bump:
		case <-deadline:
			return false
		}
	}
}

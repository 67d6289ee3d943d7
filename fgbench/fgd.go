package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fg-go/fg/fg"
	"github.com/fg-go/fg/internal/harness"
	"github.com/fg-go/fg/oocsort"
	"github.com/fg-go/fg/service"
)

// The fgd-small-jobs load: fgdClients closed-loop clients against one
// in-process daemon admitting as many jobs at once, each job a small
// verified sort shaped like examples/jobspecs/dsort-small.json.
const (
	fgdClients    = 2
	fgdNodes      = 4
	fgdRecords    = 1 << 16
	fgdRecordSize = 16
	fgdSetups     = 20 // daemon start-ups per run; setup_s is their median
)

// fgdKind is one entry of the job cycle.
type fgdKind struct{ program, dist string }

// fgdCycle is every program × distribution pair, in an order fixed by the
// seed; job i runs entry i mod 6.
func fgdCycle(seed int64) []fgdKind {
	var kinds []fgdKind
	for _, p := range []string{"dsort", "csort"} {
		for _, d := range []string{"uniform", "poisson", "std-normal"} {
			kinds = append(kinds, fgdKind{p, d})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// fgdWant is what a job's result must show, by program: its passes, and
// how many times its passes write the data (so the record count shows in
// the byte counters).
var fgdWant = map[string]struct {
	passes []string
	writes int64
}{
	"dsort": {[]string{"sampling", "pass1", "pass2"}, 2},
	"csort": {[]string{"pass1", "pass2", "pass3"}, 3},
}

// fgdRun drives the fgd-small-jobs workload for a run.
type fgdRun struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// daemon is one running service with its HTTP front end on loopback.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

// startDaemon starts a daemon and returns once its handler has answered a
// health check.
func startDaemon(cfg service.Config, client *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: service.New(cfg), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	return d, nil
}

// stop shuts the HTTP front end, then drains and closes the daemon, and
// returns once both have stopped.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves Close below to end the jobs
	<-d.served
	_ = d.srv.Close() // always nil
}

// fgdJob is what one client measured of one job.
type fgdJob struct {
	id                             int64 // the job's index in the run
	program                        string
	submit, latency                time.Duration
	start, submitted, waited, done time.Time
	status                         service.JobStatus
	view                           service.ResultView
	result                         oocsort.Result // the daemon's own, counters included
}

func (r fgdRun) run(rep *report) error {
	cycle := fgdCycle(r.seed)
	var sp *spans
	var tr *fg.Tracer
	if r.trace {
		sp = newSpans()
		tr = fg.NewTracer(1 << 17)
	}
	client := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: fgdClients}}
	defer client.CloseIdleConnections()

	var mu sync.Mutex
	collectors := map[string]*netCollector{} // traced jobs' FG snapshots, by job ID
	var srv atomic.Pointer[service.Server]
	cfg := service.Config{
		MaxConcurrent: fgdClients,
		// Traced jobs get the run's tracer and a stats hook, added to the
		// bundle the daemon builds for every job.
		OnJobParams: func(id string, pr *harness.Params) {
			j, ok := srv.Load().Get(id)
			if !ok || !strings.HasSuffix(j.Spec.Name, "-traced") {
				return
			}
			col := &netCollector{}
			mu.Lock()
			collectors[id] = col
			mu.Unlock()
			prev := pr.Observe.OnStats
			pr.Observe.Tracer = tr
			pr.Observe.OnStats = func(st fg.NetworkStats) {
				prev(st)
				col.onStats(st)
			}
		},
	}

	var setups []float64
	var d *daemon
	for i := 0; i < fgdSetups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(cfg, client); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		srv.Store(d.srv)
	}
	defer d.stop()

	root := sp.open("workload fgd-small-jobs", 0, -1)
	rt := readRuntime()
	start := time.Now()
	var next atomic.Int64
	jobs := make([][]fgdJob, fgdClients)
	var wg sync.WaitGroup
	var repMu sync.Mutex
	for c := 0; c < fgdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < r.seconds {
				i := next.Add(1) - 1
				kind := cycle[i%int64(len(cycle))]
				traced := r.trace && (i/int64(len(cycle)))%2 == 1
				job, err := r.oneJob(d, client, i, kind, traced)
				repMu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail(fmt.Errorf("job %d (%s on %s): %w", i, kind.program, kind.dist, err))
				}
				repMu.Unlock()
				if err == nil {
					jobs[c] = append(jobs[c], job)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rtEnd := readRuntime()
	sp.close(root)

	e2e, layers := samples{}, samples{}
	sortTime := map[bool]samples{false: {}, true: {}}
	n := 0
	for _, cj := range jobs {
		for _, j := range cj {
			n++
			e2e.addDur("job", j.latency)
			st := j.status
			traced := strings.HasSuffix(st.Name, "-traced")
			sortTime[traced].add(j.program, j.view.TotalMS/1e3)
			if !traced {
				sp.add("op.job."+j.program+".untraced", j.id, root, j.start, j.done)
				continue
			}
			op := sp.add("op.job."+j.program, j.id, root, j.start, j.done)
			sp.add("service.submit(POST /jobs)", j.id, op, j.start, j.submitted)
			sp.add("service.queue", j.id, op, st.Submitted, *st.Started)
			sp.add("service.run", j.id, op, *st.Started, *st.Finished)
			sp.add("service.result(GET /jobs/{id}/result)", j.id, op, j.waited, j.done)
			layers.addDur("service.submit_s", j.submit)
			layers.addDur("service.queue_s", st.Started.Sub(st.Submitted))
			layers.addDur("service.run_s", st.Finished.Sub(*st.Started))
			layers.add("service.sort_s", j.view.TotalMS/1e3)
			mu.Lock()
			col := collectors[st.ID]
			mu.Unlock()
			if col == nil {
				continue
			}
			nets, last := col.result()
			// After its last network a job only verifies and tears down.
			layers.addDur("check.verify_s", st.Finished.Sub(last))
			addSortLayers(layers, j.program, fgdNodes, fgdRecords*fgdRecordSize, j.result, nets)
		}
	}

	m := e2e.medians()
	rep.set("setup_s", quantile(setups, 0.5))
	rep.set("dsort_s", quantile(sortTime[false]["dsort"], 0.5))
	rep.set("csort_s", quantile(sortTime[false]["csort"], 0.5))
	rep.set("jobs_per_s", float64(n)/elapsed.Seconds())
	rep.set("job_p50_s", m["job"])
	rep.note("samples: %d verified jobs (%d dsort, %d csort untraced) over %.1fs, %d daemon set-ups",
		n, len(sortTime[false]["dsort"]), len(sortTime[false]["csort"]), elapsed.Seconds(), len(setups))
	// A tail percentile is only reported with at least ten samples beyond it.
	if lat := e2e["job"]; len(lat) >= 100 {
		rep.note("job_p90_s %.6f s (n=%d)", quantile(lat, 0.9), len(lat))
	}
	if c := quantile(sortTime[false]["csort"], 0.5); c > 0 {
		rep.note("dsort/csort sort-time ratio %.4f (not gated)", quantile(sortTime[false]["dsort"], 0.5)/c)
	}
	if !r.trace {
		return nil
	}
	for k, v := range layers.medians() {
		rep.setLayer(k, v)
	}
	rtEnd.sub(rt).perOp(rep, n)
	if u := quantile(sortTime[false]["dsort"], 0.5); u > 0 {
		rep.setLayer("trace.overhead", quantile(sortTime[true]["dsort"], 0.5)/u)
	}
	rep.spans, rep.tracer = sp, tr
	return nil
}

// oneJob submits job i over HTTP, waits on it, reads its result over
// HTTP, and checks the result against the spec.
func (r fgdRun) oneJob(d *daemon, client *http.Client, i int64, kind fgdKind, traced bool) (fgdJob, error) {
	name := fmt.Sprintf("fgbench-%d", i)
	if traced {
		name += "-traced"
	}
	spec := service.JobSpec{
		Name:         name,
		Program:      kind.program,
		Nodes:        fgdNodes,
		Records:      fgdRecords,
		RecordSize:   fgdRecordSize,
		Distribution: kind.dist,
		Seed:         r.seed*1_000_000 + i + 1,
		Disk:         &service.DiskSpec{SeekLatencyUS: 20, BytesPerSecond: 2e8},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fgdJob{}, err
	}
	job := fgdJob{id: i, program: kind.program, start: time.Now()}
	var sub struct{ ID string }
	if err := call(client, http.MethodPost, d.url+"/jobs", body, http.StatusAccepted, &sub); err != nil {
		return job, err
	}
	job.submitted = time.Now()
	job.submit = job.submitted.Sub(job.start)
	j, ok := d.srv.Get(sub.ID)
	if !ok {
		return job, fmt.Errorf("job %s vanished", sub.ID)
	}
	j.Wait()
	job.waited = time.Now()
	if err := call(client, http.MethodGet, d.url+"/jobs/"+sub.ID+"/result", nil, http.StatusOK, &job.view); err != nil {
		return job, err
	}
	job.done = time.Now()
	job.latency = job.done.Sub(job.start)
	job.status = j.Status()
	job.result, _ = j.Result() // done, as checkJob confirms
	return job, checkJob(spec, job)
}

// checkJob holds a job's result to its spec: done (which the daemon only
// says after verifying the output), the program's pass list, and byte
// counters that account for exactly the spec's records.
func checkJob(spec service.JobSpec, job fgdJob) error {
	st, v := job.status, job.view
	if st.State != "done" || st.Started == nil || st.Finished == nil {
		return fmt.Errorf("state %s: %s", st.State, st.Error)
	}
	want := fgdWant[spec.Program]
	var passes []string
	for _, p := range v.Passes {
		passes = append(passes, p.Name)
	}
	if v.Program != spec.Program || !reflect.DeepEqual(passes, want.passes) {
		return fmt.Errorf("result is %s with passes %v, want %s with %v", v.Program, passes, spec.Program, want.passes)
	}
	data := spec.Records * int64(spec.RecordSize)
	if v.BytesWritten != want.writes*data {
		return fmt.Errorf("%d bytes written, want %d for %d records", v.BytesWritten, want.writes*data, spec.Records)
	}
	if got, want := v.BytesRead+v.BytesWritten, wantDiskBytes(spec.Program, spec.Nodes, spec.Records, spec.RecordSize); got != want {
		return fmt.Errorf("%d disk bytes moved, want %d", got, want)
	}
	return nil
}

// call makes one request and decodes a JSON answer, failing on any status
// but want.
func call(client *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s answered %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
	}
	return nil
}

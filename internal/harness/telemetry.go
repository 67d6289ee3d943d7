package harness

// Fleet telemetry wiring. The cluster's telemetry plane (cluster.Telemetry)
// ships fg's documents but does not know where a run keeps them, so this
// file supplies its two missing halves: a collector that picks a rank's
// network statuses, knob positions and stall report out of the run's
// Observe bundle, and the HTTP server that exposes the aggregator's fleet
// view at /cluster/status.json and /cluster/metrics, with on-demand
// evidence at /cluster/blackbox and /cluster/profile.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fg-go/fg/cluster"
	"github.com/fg-go/fg/fg"
)

// rankOfNetwork parses the "@<rank>" suffix the programs append to every
// network name ("dsort.p1@3" -> 3).
func rankOfNetwork(name string) (int, bool) {
	i := strings.LastIndexByte(name, '@')
	if i < 0 {
		return 0, false
	}
	r, err := strconv.Atoi(name[i+1:])
	if err != nil || r < 0 {
		return 0, false
	}
	return r, true
}

// A fleetCollector builds the fg-side half of a rank's telemetry record
// from the run's Observe bundle, and tracks the latest watchdog stall
// report per rank so the record can carry it. One collector serves one
// cluster; Params.observe builds it and detaches its hooks when the run
// ends.
type fleetCollector struct {
	o *fg.Observe

	mu     sync.Mutex
	stalls map[int]fg.StallReport

	// restore undoes the OnStall/OnStats wrapping; called from detach so
	// back-to-back runs do not chain handlers without bound.
	restore func()
}

// newFleetCollector hooks the bundle's watchdog and completion callbacks
// (wrapping, not replacing, whatever is installed) so stall reports are
// captured per rank and cleared when the stalled network finishes.
func newFleetCollector(o *fg.Observe) *fleetCollector {
	fc := &fleetCollector{o: o, stalls: map[int]fg.StallReport{}, restore: func() {}}
	if o == nil {
		return fc
	}
	prevStats := o.OnStats
	o.OnStats = func(st fg.NetworkStats) {
		fc.networkFinished(st.Name)
		if prevStats != nil {
			prevStats(st)
		}
	}
	fc.restore = func() { o.OnStats = prevStats }
	if o.Watchdog != nil {
		prevStall := o.Watchdog.OnStall
		o.Watchdog.OnStall = func(rep fg.StallReport) {
			fc.observeStall(rep)
			if prevStall != nil {
				prevStall(rep)
			}
		}
		prevRestore := fc.restore
		fc.restore = func() {
			o.Watchdog.OnStall = prevStall
			prevRestore()
		}
	}
	return fc
}

// observeStall files a watchdog report under the reporting network's rank,
// less the goroutine dump: that is what the pull RPC fetches on demand.
func (fc *fleetCollector) observeStall(rep fg.StallReport) {
	rank, ok := rankOfNetwork(rep.Network)
	if !ok {
		return
	}
	rep.Goroutines = ""
	fc.mu.Lock()
	fc.stalls[rank] = rep
	fc.mu.Unlock()
}

// networkFinished clears a rank's stall once the network that reported it
// completes — a finished network is by definition no longer stalled.
func (fc *fleetCollector) networkFinished(name string) {
	rank, ok := rankOfNetwork(name)
	if !ok {
		return
	}
	fc.mu.Lock()
	if s, ok := fc.stalls[rank]; ok && s.Network == name {
		delete(fc.stalls, rank)
	}
	fc.mu.Unlock()
}

// collectFor returns the Collect callback for one cluster. Auto-tuner
// state is process-scoped (tuners carry no rank), so it is attributed to
// the process's first local rank — exactly right in the one-rank-per-
// process deployments the fleet view exists for, and a documented
// representative otherwise.
func (fc *fleetCollector) collectFor(c *cluster.Cluster) func(rank int) cluster.RankTelemetry {
	tunerRank := -1
	if local := c.Local(); len(local) > 0 {
		tunerRank = local[0].Rank()
	}
	return func(rank int) cluster.RankTelemetry {
		return fc.collect(rank, rank == tunerRank)
	}
}

// collect assembles the fg-side fields of one rank's record from the
// metrics registry's snapshot: the status of every network whose name
// carries the rank's suffix, and (for the tuner owner) the knob positions.
func (fc *fleetCollector) collect(rank int, tunerOwner bool) cluster.RankTelemetry {
	var rec cluster.RankTelemetry
	if fc.o != nil && fc.o.Metrics != nil {
		nets, knobs, adjustments := fc.o.Metrics.Snapshot()
		for _, ns := range nets {
			if r, ok := rankOfNetwork(ns.Network); !ok || r != rank {
				continue
			}
			if i := strings.IndexByte(ns.Network, '.'); rec.Program == "" && i > 0 {
				rec.Program = ns.Network[:i]
			}
			rec.Networks = append(rec.Networks, ns)
		}
		if tunerOwner {
			rec.Knobs, rec.Adjustments = knobs, adjustments
		}
	}
	fc.mu.Lock()
	if s, ok := fc.stalls[rank]; ok {
		rec.Stall = &s
	}
	fc.mu.Unlock()
	return rec
}

// A ClusterTelemetry is the fleet view's HTTP server, the cmds' end of the
// -cluster-status-addr flag. It serves:
//
//	/cluster/status.json  the aggregator's fleet view (cluster.ClusterStatus)
//	/cluster/metrics      the same view as rank-labeled Prometheus series
//	/cluster/blackbox     ?rank=N[&stall=1]: a rank's recent trace, pulled
//	                      on demand (stall=1 returns the one auto-pulled at
//	                      the rank's last stall)
//	/cluster/profile      ?rank=N&kind=cpu|heap: a pprof profile pulled from
//	                      the rank's process
//
// The server outlives any one cluster — fgexp builds many — so it holds a
// swappable pointer to the current telemetry plane; SetPlane (wired through
// Params.OnTelemetry) installs each fresh cluster's. On a process that does
// not host the aggregator rank the endpoints answer 503: the fleet view
// lives where the records flow.
type ClusterTelemetry struct {
	reg *fg.MetricsRegistry
	ln  net.Listener
	srv *http.Server

	mu    sync.Mutex
	plane *cluster.Telemetry
}

// ServeClusterTelemetry starts the fleet-view server on addr (":0" picks a
// free port). The view is empty until SetPlane installs a telemetry plane.
func ServeClusterTelemetry(addr string) (*ClusterTelemetry, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("harness: cluster status listener: %w", err)
	}
	ct := &ClusterTelemetry{ln: ln, reg: fg.NewMetricsRegistry()}
	ct.reg.RegisterFunc(func(emit fg.EmitFunc) {
		if a := ct.aggregator(); a != nil {
			a.EmitMetrics(emit)
		}
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/status.json", ct.handleStatus)
	mux.Handle("/cluster/metrics", ct.reg)
	mux.Handle("/cluster/blackbox", ct.servePull("application/json", pullBlackbox))
	mux.Handle("/cluster/profile", ct.servePull("application/octet-stream", pullProfile))
	ct.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = ct.srv.Serve(ln) }()
	return ct, nil
}

// SetPlane installs the current cluster's telemetry plane; nil-safe so the
// harness can hand it whatever StartTelemetry returned.
func (ct *ClusterTelemetry) SetPlane(t *cluster.Telemetry) {
	if ct == nil || t == nil {
		return
	}
	ct.mu.Lock()
	ct.plane = t
	ct.mu.Unlock()
}

func (ct *ClusterTelemetry) telemetry() *cluster.Telemetry {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.plane
}

func (ct *ClusterTelemetry) aggregator() *cluster.TelemetryAggregator {
	return ct.telemetry().Aggregator()
}

// Addr returns the server's bound address.
func (ct *ClusterTelemetry) Addr() string { return ct.ln.Addr().String() }

// Close stops the server.
func (ct *ClusterTelemetry) Close() error {
	if ct == nil {
		return nil
	}
	return ct.srv.Close()
}

func (ct *ClusterTelemetry) handleStatus(w http.ResponseWriter, _ *http.Request) {
	a := ct.aggregator()
	if a == nil {
		http.Error(w, "no telemetry aggregator in this process (is this the aggregator rank, and has a run started?)",
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(a.Status())
}

// servePull answers a pull endpoint with what fetch returns for the
// request's mandatory rank parameter: 503 with no telemetry plane, 400 for
// a bad request, 502 when the pull fails.
func (ct *ClusterTelemetry) servePull(contentType string,
	fetch func(t *cluster.Telemetry, rank int, q url.Values) ([]byte, int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := ct.telemetry()
		if t == nil {
			http.Error(w, "telemetry not running", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query()
		rank, err := strconv.Atoi(q.Get("rank"))
		if err != nil {
			http.Error(w, fmt.Sprintf("missing or bad rank %q", q.Get("rank")), http.StatusBadRequest)
			return
		}
		data, code, err := fetch(t, rank, q)
		if err != nil {
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(data)
	}
}

// pullBlackbox fetches a rank's black box, or with stall=1 the one
// auto-pulled at the rank's last stall.
func pullBlackbox(t *cluster.Telemetry, rank int, q url.Values) ([]byte, int, error) {
	if q.Get("stall") == "" {
		data, err := t.Pull(rank, cluster.PullBlackbox, 0)
		return data, http.StatusBadGateway, err
	}
	a := t.Aggregator()
	if a == nil {
		return nil, http.StatusBadGateway, errors.New("no aggregator in this process")
	}
	data, err := a.StallBlackbox(rank)
	return data, http.StatusBadGateway, err
}

// pullProfile fetches a pprof profile of kind cpu or heap (the default).
func pullProfile(t *cluster.Telemetry, rank int, q url.Values) ([]byte, int, error) {
	kind := cluster.PullHeapProfile
	switch k := q.Get("kind"); k {
	case "cpu":
		kind = cluster.PullCPUProfile
	case "heap", "":
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("unknown profile kind %q (want cpu or heap)", k)
	}
	data, err := t.Pull(rank, kind, 0)
	return data, http.StatusBadGateway, err
}

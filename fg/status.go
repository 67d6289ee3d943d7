package fg

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Live status endpoint. Where /metrics serves flat samples for a scraper,
// /status answers the operator's question directly: which stages are
// running, which are blocked, and what governs the wall clock right now.
// Both views read the same lock-free counters Stats reads, so hitting the
// endpoint mid-run costs the run nothing.

// statusStuckFor is the park duration past which the status view labels a
// stage blocked rather than running. It is a display threshold, not a stall
// alarm — the watchdog applies its own, derived from StallAfter.
const statusStuckFor = time.Second

// NetworkStatus is one network's live health document, served as JSON at
// /status.json and rendered as text at /status.
type NetworkStatus struct {
	Network string        `json:"network"`
	Running bool          `json:"running"`
	Wall    time.Duration `json:"wall_ns"`
	Stages  []StageHealth `json:"stages"`
	// Bottleneck is the current governing-stage analysis — mid-run it
	// reports the bottleneck so far.
	Bottleneck BottleneckReport `json:"bottleneck"`
}

// Status snapshots the network's live health: per-stage classified states,
// rounds, utilization, and the current bottleneck. Safe to call at any
// time, including while Run is in flight.
func (nw *Network) Status() NetworkStatus { return statusOf(nw.Stats()) }

// statusOf derives the health document from a stats snapshot.
func statusOf(st NetworkStats) NetworkStatus {
	ns := NetworkStatus{
		Network:    st.Name,
		Running:    st.Running,
		Wall:       st.Wall,
		Stages:     classifyStages(st, statusStuckFor),
		Bottleneck: st.Bottleneck(),
	}
	for i, s := range st.Stages {
		if st.Wall > 0 {
			ns.Stages[i].Utilization = float64(s.Work) / float64(st.Wall)
		}
	}
	return ns
}

// String renders the status as a human-readable block.
func (s NetworkStatus) String() string {
	var b strings.Builder
	state := "idle"
	if s.Running {
		state = "running"
	} else if s.Wall > 0 {
		state = "finished"
	}
	fmt.Fprintf(&b, "network %q: %s, wall %v\n", s.Network, state, s.Wall.Round(time.Millisecond))
	for _, h := range s.Stages {
		fill := fmt.Sprintf("%d", h.QueueLen)
		if h.QueueCap > 0 {
			fill = fmt.Sprintf("%d/%d", h.QueueLen, h.QueueCap)
		}
		fmt.Fprintf(&b, "  stage %-20s on %-20s %-14s rounds=%-6d util=%3.0f%% queue=%-7s for %v\n",
			h.Stage, h.Pipeline, h.State, h.Rounds, 100*h.Utilization, fill,
			h.InState.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "  %s\n", s.Bottleneck)
	return b.String()
}

// PeerHealth is one cluster peer's liveness as this process sees it: the
// cluster's failure-detector snapshot (cluster.PeerHealth), registered via
// MetricsRegistry.RegisterPeerHealth so /status answers "who went quiet",
// and shipped as is in the cluster's telemetry records.
type PeerHealth struct {
	Rank int `json:"rank"`
	// LastSeenAge is how long ago the peer's last heartbeat arrived.
	LastSeenAge time.Duration `json:"last_seen_age_ns"`
	// Monitored reports whether the peer is a death-detection candidate on
	// this process; unmonitored peers are this process's own ranks.
	Monitored bool `json:"monitored"`
	Suspect   bool `json:"suspect,omitempty"`
	Dead      bool `json:"dead,omitempty"`
}

// statusDoc is the /status.json document when a peer-health source is
// registered; without one the endpoint keeps its historical shape, a bare
// array of NetworkStatus.
type statusDoc struct {
	Networks []NetworkStatus `json:"networks"`
	Peers    []PeerHealth    `json:"peers"`
}

// StatusJSONHandler serves every registered network's status as JSON, for
// dashboards and scripts: a bare array of network documents, or — once a
// peer-health source is registered — an object with "networks" and
// "peers" sections.
func (r *MetricsRegistry) StatusJSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		nets, _, _ := r.Snapshot()
		var doc any = nets
		if peers := r.peerHealth(); peers != nil {
			doc = statusDoc{Networks: nets, Peers: peers}
		}
		_ = json.NewEncoder(w).Encode(doc)
	})
}

// StatusTextHandler serves every registered network's status as plain text,
// for curl and humans.
func (r *MetricsRegistry) StatusTextHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snaps, _, _ := r.Snapshot()
		if len(snaps) == 0 {
			fmt.Fprintln(w, "(no networks registered)")
			return
		}
		for _, s := range snaps {
			fmt.Fprint(w, s.String())
		}
		for _, p := range r.peerHealth() {
			state := "ok"
			switch {
			case p.Dead:
				state = "dead"
			case p.Suspect:
				state = "suspect"
			case !p.Monitored:
				state = "local"
			}
			fmt.Fprintf(w, "peer %d: %-7s last heartbeat %v ago\n",
				p.Rank, state, p.LastSeenAge.Round(time.Millisecond))
		}
	})
}

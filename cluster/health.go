package cluster

// Heartbeat-based failure detection. The fail-fast machinery of the abort
// path handles the failures the transport can see: a dial that is refused,
// a write that errors. What it cannot see is a peer that simply stops — a
// kill -9'd process whose kernel quietly resets nothing, a partitioned
// switch port that blackholes bytes. Without liveness detection those
// failures surface as stalls, and a stall report names a symptom ("recv
// blocked 30s"), not a cause. The health monitor closes that gap: every
// rank beats every other rank on a reserved control tag at a fixed
// interval, a per-peer last-seen clock ages the silence, and a peer silent
// past the dead threshold is declared dead — the cluster aborts with a
// PeerDeathError, so every blocked Send and Recv returns a prompt
// CommError wrapping ErrPeerDead instead of waiting for a watchdog to
// guess.
//
// Heartbeats are multiplexed over the Transport seam as ordinary frames
// with the reserved healthTag, so any conforming backend carries them; they
// are intercepted in Cluster.deliverLocal before the mailbox layer, so they
// cost the data path one tag compare and no allocation. Sends go through
// Transport.DeliverControl, which must not block on data backpressure: a
// receiver that is merely slow (full mailboxes, saturated byte budget) must
// keep proving it is alive, or backpressure would read as death.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fg-go/fg/fg"
)

// ErrPeerDead is wrapped by the CommError that releases blocked operations
// when the failure detector declares a peer dead. Match it with errors.Is
// to tell node death from a plain abort; the full story (which rank, how
// long silent) is the PeerDeathError in the same chain.
var ErrPeerDead = errors.New("cluster: peer declared dead")

// A PeerDeathError is the abort cause recorded when the failure detector
// gives up on a peer. It wraps ErrPeerDead, not ErrAborted, so
// Cluster.Run's root-cause selection attributes the job's failure to the
// dead peer rather than to the teardown it triggered.
type PeerDeathError struct {
	// Rank is the peer declared dead.
	Rank int
	// Silence is how long the peer had been silent when declared.
	Silence time.Duration
}

func (e *PeerDeathError) Error() string {
	return fmt.Sprintf("cluster: rank %d declared dead after %v without a heartbeat",
		e.Rank, e.Silence.Round(time.Millisecond))
}

func (e *PeerDeathError) Unwrap() error { return ErrPeerDead }

// healthTag is the reserved control tag heartbeat frames travel under.
// Application tags are never negative (user-facing tags pass through the
// FNV hash in comm.go, which clears the sign bit), so the mailbox layer
// can claim the negative tag space for transport control.
const healthTag int64 = -1 << 62

// HealthConfig parameterizes the failure detector. The zero value disables
// it entirely: no goroutine, no frames, no hot-path cost beyond a tag
// compare that never matches.
type HealthConfig struct {
	// Interval is the heartbeat period; every local rank beats every other
	// rank once per interval. Zero disables failure detection.
	Interval time.Duration
	// SuspectAfter is the silence after which a peer is marked suspect in
	// PeerHealth and the metrics — observable but with no enforcement.
	// Zero defaults to 3×Interval.
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a peer is declared dead and the
	// job aborted with a PeerDeathError. Zero defaults to 10×Interval.
	DeadAfter time.Duration
	// StartupGrace extends DeadAfter for peers never heard from at all, so
	// the processes of one job may start (or a supervised replacement may
	// be respawned) in any order without being declared dead on arrival.
	// Zero defaults to the larger of DeadAfter and 10 seconds.
	StartupGrace time.Duration
}

// withDefaults fills the derived thresholds.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.SuspectAfter <= 0 {
		h.SuspectAfter = 3 * h.Interval
	}
	if h.DeadAfter <= 0 {
		h.DeadAfter = 10 * h.Interval
	}
	if h.StartupGrace <= 0 {
		h.StartupGrace = 10 * time.Second
		if h.DeadAfter > h.StartupGrace {
			h.StartupGrace = h.DeadAfter
		}
	}
	return h
}

// PeerHealth returns every rank's liveness as this process sees it, or nil
// when failure detection is disabled. A rank is Monitored when it is a
// death-detection candidate here (remote, or locally partitioned);
// unmonitored ranks are this process's own, which cannot die without
// taking the detector with them.
func (c *Cluster) PeerHealth() []fg.PeerHealth {
	if c.health == nil {
		return nil
	}
	return c.health.snapshot()
}

// healthMonitor is the per-process failure detector: one goroutine that
// beats on every tick and ages every monitored peer's silence.
type healthMonitor struct {
	c   *Cluster
	cfg HealthConfig

	lastSeen []atomic.Int64 // unix nanos of the last heartbeat from each rank
	heard    []atomic.Bool  // whether any heartbeat ever arrived from each rank
	suspect  []atomic.Bool
	dead     []atomic.Bool

	sent  atomic.Int64
	recvd atomic.Int64

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
}

func newHealthMonitor(c *Cluster, cfg HealthConfig) *healthMonitor {
	p := c.P()
	return &healthMonitor{
		c:        c,
		cfg:      cfg,
		lastSeen: make([]atomic.Int64, p),
		heard:    make([]atomic.Bool, p),
		suspect:  make([]atomic.Bool, p),
		dead:     make([]atomic.Bool, p),
		stopc:    make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (m *healthMonitor) start() {
	now := time.Now().UnixNano()
	for i := range m.lastSeen {
		m.lastSeen[i].Store(now)
	}
	go m.run()
}

// stop ends the monitor and waits for its goroutine; idempotent.
func (m *healthMonitor) stop() {
	m.stopOnce.Do(func() { close(m.stopc) })
	<-m.done
}

func (m *healthMonitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case <-m.c.aborted:
			// The job is dead either way; beating a corpse helps nobody.
			return
		case <-t.C:
			m.beat()
			m.check()
		}
	}
}

// beat sends one heartbeat from every local rank to every other rank.
// Errors are ignored: a missed beat is exactly what the receiving end's
// detector exists to notice.
func (m *healthMonitor) beat() {
	for _, src := range m.c.local {
		for dst := 0; dst < m.c.P(); dst++ {
			if dst == src.rank {
				continue
			}
			f := Frame{Src: src.rank, Dst: dst, Tag: healthTag}
			if err := m.c.transport.DeliverControl(f); err == nil {
				m.sent.Add(1)
			}
		}
	}
}

// observe records a heartbeat from rank src; called from deliverLocal on
// the receiving transport's goroutine. It must stay allocation-free: it is
// the only heartbeat cost adjacent to the data path.
func (m *healthMonitor) observe(src int) {
	m.recvd.Add(1)
	m.heard[src].Store(true)
	m.lastSeen[src].Store(time.Now().UnixNano())
}

// check ages every monitored peer's silence, marking suspects and
// declaring at most one death (the abort it triggers ends the job; naming
// one culprit beats naming everyone the teardown swept up).
func (m *healthMonitor) check() {
	now := time.Now()
	for r := 0; r < m.c.P(); r++ {
		if !m.monitored(r) {
			// A rank that stopped being monitored (a healed partition) sheds
			// any suspicion accrued while it was cut off.
			m.suspect[r].Store(false)
			continue
		}
		silence := now.Sub(time.Unix(0, m.lastSeen[r].Load()))
		deadAfter := m.cfg.DeadAfter
		if !m.heard[r].Load() && m.cfg.StartupGrace > deadAfter {
			deadAfter = m.cfg.StartupGrace
		}
		if silence >= deadAfter {
			m.declareDead(r, silence)
			return
		}
		m.suspect[r].Store(silence >= m.cfg.SuspectAfter)
	}
}

// monitored reports whether rank r is a death-detection candidate for this
// process: hosted elsewhere, or hosted here but partitioned away (the
// chaos seam that lets single-process tests exercise peer death).
func (m *healthMonitor) monitored(r int) bool {
	return m.c.nodes[r] == nil || m.c.isPartitioned(r)
}

func (m *healthMonitor) declareDead(r int, silence time.Duration) {
	m.dead[r].Store(true)
	m.suspect[r].Store(false)
	err := &PeerDeathError{Rank: r, Silence: silence}
	if hook := m.c.onPeerDeath.Load(); hook != nil {
		(*hook)(r, err)
	}
	m.c.AbortWith(err)
}

func (m *healthMonitor) snapshot() []fg.PeerHealth {
	now := time.Now()
	out := make([]fg.PeerHealth, m.c.P())
	for r := range out {
		out[r] = fg.PeerHealth{
			Rank:        r,
			LastSeenAge: now.Sub(time.Unix(0, m.lastSeen[r].Load())),
			Monitored:   m.monitored(r),
			Suspect:     m.suspect[r].Load(),
			Dead:        m.dead[r].Load(),
		}
	}
	return out
}

// emitMetrics reports the detector's counters; called from
// Cluster.EmitMetrics.
func (m *healthMonitor) emitMetrics(emit fg.EmitFunc) {
	suspects, deaths := 0, 0
	for r := 0; r < m.c.P(); r++ {
		if m.suspect[r].Load() {
			suspects++
		}
		if m.dead[r].Load() {
			deaths++
		}
	}
	none := map[string]string{}
	emit("cluster_heartbeats_sent_total", none, float64(m.sent.Load()))
	emit("cluster_heartbeats_recvd_total", none, float64(m.recvd.Load()))
	emit("cluster_peers_suspect", none, float64(suspects))
	emit("cluster_peers_dead", none, float64(deaths))
	// Per-peer rows, so a scrape of any one rank shows which peer went
	// quiet, not just that one did.
	for _, p := range m.snapshot() {
		if !p.Monitored {
			continue
		}
		l := func() map[string]string {
			return map[string]string{"peer": fmt.Sprintf("%d", p.Rank)}
		}
		emit("fg_peer_last_seen_seconds", l(), p.LastSeenAge.Seconds())
		emit("fg_peer_suspect", l(), b2f(p.Suspect))
		emit("fg_peer_dead", l(), b2f(p.Dead))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

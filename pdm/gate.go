package pdm

import (
	"sync"
	"time"
)

// A CostGate serializes a simulated device (a disk head, a NIC) and charges
// simulated busy time against wall-clock time. Charges accumulate as debt
// and are paid with one sleep whenever the debt reaches a small quantum;
// the actual slept duration — which on most schedulers overshoots the
// request — is subtracted from the debt, which may go negative and absorb
// the overshoot. The long-run wall-clock rate therefore matches the model
// exactly, even for operations much shorter than the scheduler's timer
// resolution, while the gate's mutex still serializes concurrent users as
// a single device would. A charge of at least one quantum is always paid
// in full: its caller never returns while the device is behind the model,
// so a sequence of such charges takes at least their sum of wall time even
// when an earlier overshoot left credit that brings the debt below the
// quantum.
type CostGate struct {
	mu   sync.Mutex
	debt time.Duration
}

// gateQuantum is the debt level that triggers an actual sleep.
const gateQuantum = time.Millisecond

// Charge adds a simulated duration to the device and blocks the caller for
// the debt-adjusted equivalent wall-clock time.
func (g *CostGate) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.debt += d
	if g.debt <= 0 || (g.debt < gateQuantum && d < gateQuantum) {
		return
	}
	start := time.Now()
	time.Sleep(g.debt)
	g.debt -= time.Since(start)
}

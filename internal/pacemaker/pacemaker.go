// Package pacemaker implements the view-synchronization module of
// Section III-B, following the LibraBFT realization the paper adopts:
// whenever a replica's timer for its current view v expires it
// broadcasts ⟨TIMEOUT, v⟩ and advances to v+1 as soon as a quorum of
// matching timeouts — a timeout certificate (TC) — is collected. The
// TC is forwarded to the leader of v+1, which uses it to propose
// immediately (optimistic responsiveness) or after waiting the maximum
// network delay (the non-responsive variants).
//
// The pacemaker is passive: the replica's event loop drives it and
// reacts to the local-timeout channel. Internal state is mutex-guarded
// because the view timer fires on a runtime goroutine.
package pacemaker

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bamboo-bft/bamboo/internal/quorum"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Pacemaker tracks the current view, runs the view timer, and
// aggregates timeout messages into TCs.
type Pacemaker struct {
	mu       sync.Mutex
	view     types.View
	timeout  time.Duration
	timer    *time.Timer
	stopped  bool
	timeouts *quorum.Timeouts

	// timeoutCh surfaces local timer expirations to the event loop;
	// the payload is the view that timed out.
	timeoutCh chan types.View

	// fired counts timer expirations surfaced over the pacemaker's
	// lifetime (re-firings while stuck included) — the telemetry
	// plane's view-synchronization health counter.
	fired atomic.Uint64
}

// New creates a pacemaker starting at view 1 with the given view timer
// duration and timeout-certificate quorum. The timer does not run
// until Start is called — view bookkeeping (AdvanceTo) works before
// then, which is how restart bootstrap fast-forwards a replayed
// replica to its pre-crash view without timers firing mid-replay.
func New(timeout time.Duration, quorumSize int) *Pacemaker {
	return &Pacemaker{
		view:      1,
		timeout:   timeout,
		stopped:   true,
		timeouts:  quorum.NewTimeouts(quorumSize),
		timeoutCh: make(chan types.View, 8),
	}
}

// Start arms the view timer for the current view.
func (p *Pacemaker) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = false
	p.resetTimerLocked()
}

// Stop disarms the timer; no further timeout events fire.
func (p *Pacemaker) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
}

// CurView returns the replica's current view.
func (p *Pacemaker) CurView() types.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.view
}

// TimeoutChan streams local view-timer expirations. If the replica
// stays stuck in a view the timer re-fires every timeout period so the
// replica keeps re-broadcasting its timeout (message loss tolerance).
func (p *Pacemaker) TimeoutChan() <-chan types.View { return p.timeoutCh }

// resetTimerLocked (re)arms the timer for the current view.
func (p *Pacemaker) resetTimerLocked() {
	if p.timer != nil {
		p.timer.Stop()
	}
	if p.stopped || p.timeout <= 0 {
		return
	}
	view := p.view
	p.timer = time.AfterFunc(p.timeout, func() { p.fire(view) })
}

// fire surfaces a timer expiration if the view is still current, then
// re-arms for the same view so timeouts keep re-broadcasting while the
// replica is stuck.
func (p *Pacemaker) fire(view types.View) {
	p.mu.Lock()
	if p.stopped || view != p.view {
		p.mu.Unlock()
		return
	}
	p.timer = time.AfterFunc(p.timeout, func() { p.fire(view) })
	p.mu.Unlock()
	p.fired.Add(1)
	select {
	case p.timeoutCh <- view:
	default:
		// The event loop is behind; it will see the next firing.
	}
}

// AdvanceTo moves the replica to the given view if it is ahead of the
// current one, re-arming the timer. It returns true if the view
// changed. Happy-path view synchronization calls this with qc.View+1;
// timeout-path synchronization with tc.View+1.
func (p *Pacemaker) AdvanceTo(v types.View) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v <= p.view {
		return false
	}
	p.view = v
	p.timeouts.Prune(v)
	p.resetTimerLocked()
	return true
}

// OnTimeoutMsg aggregates a remote (or the local) timeout message.
// When the quorum-th distinct timeout for a view arrives it returns
// the freshly formed TC, exactly once per view.
func (p *Pacemaker) OnTimeoutMsg(t *types.Timeout) (*types.TC, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.View < p.view {
		return nil, false // stale
	}
	return p.timeouts.Add(t)
}

// TimeoutCount returns how many distinct replicas have been seen
// timing out of the view — the engine's f+1 "join" amplification rule
// reads it to keep staggered replicas synchronized.
func (p *Pacemaker) TimeoutCount(view types.View) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.timeouts.Count(view)
}

// TimeoutsFired returns how many view-timer expirations the pacemaker
// has surfaced over its lifetime, readable from any goroutine (the
// /metrics exposition's bamboo_pacemaker_timeouts_fired_total).
func (p *Pacemaker) TimeoutsFired() uint64 { return p.fired.Load() }

// PendingTimeoutSets reports live timeout aggregation sets: the
// replica's bamboo_pending_timeout_sets gauge, and leak detection in
// long-running tests.
func (p *Pacemaker) PendingTimeoutSets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.timeouts.Size()
}

// Package client implements the Bamboo benchmark clients: closed-loop
// workers (the paper's "concurrency" knob — each worker keeps one
// request in flight) and an open-loop Poisson generator (the arrival
// process assumed by the Section V queuing model). Latency is measured
// at the client end, from submission to commit confirmation, exactly
// as the paper defines it.
//
// A SubmitAndWait call costs no runtime timer and no fresh channel.
// The call takes a pooled waiter — a one-slot outcome channel plus the
// operation's deadline — and registers it in the waiter map under its
// TxID. Whoever removes the waiter from the map, under the client's
// lock, is its only sender: the reply loop (committed or rejected), the
// deadline sweeper (expired), or Stop (stopped). The caller blocks on
// the waiter's channel alone and returns the channel to the pool once
// it has received its outcome, so a reused waiter never sees a stale
// one. One sweeper goroutine, started by the first call with a
// timeout, scans the map every sweepTick; a timeout therefore resolves
// up to one tick late. Only the rare rejection backoff arms a timer of
// its own, and it never sleeps past the deadline.
package client

import (
	"math/rand"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// Client submits transactions to randomly chosen replicas over an
// in-process transport endpoint and tracks reply latency.
type Client struct {
	ep          network.Transport
	id          uint64
	n           int
	payloadSize int
	rng         *rand.Rand
	rngMu       sync.Mutex
	gen         workload.Generator

	latency   *metrics.Latency
	committed metrics.Counter
	rejected  metrics.Counter
	retries   metrics.Counter
	shed      metrics.Counter

	mu sync.Mutex
	// waiters holds the closed-loop operations awaiting an outcome.
	waiters map[types.TxID]waiter
	// pendingOpen tracks the *intended* send times of latency-sampled
	// open-loop transactions, resolved by the reply loop. Stamping the
	// intended arrival instead of the actual send keeps the histogram
	// free of coordinated omission: if the pacer falls behind, the
	// scheduling lag shows up as latency rather than vanishing.
	pendingOpen map[types.TxID]time.Time
	seq         uint64
	// fanout broadcasts each transaction to every replica.
	fanout bool
	// openLoop records that RunOpenLoop ran: a reply that resolves no
	// waiter is then an unsampled open-loop commit, not a late reply
	// to an operation that already expired.
	openLoop bool
	// sweeping records that the deadline sweeper has started; closed,
	// that Stop has begun and no waiter may be registered.
	sweeping bool
	closed   bool

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// outcome is how an operation's wait ended.
type outcome uint8

const (
	outCommitted outcome = iota
	outRejected
	outExpired
	outStopped
)

// waiter is one registered operation: the channel its single outcome
// arrives on (capacity one, so the sender never blocks) and its
// deadline in nanoseconds since epoch (0: none).
type waiter struct {
	ch       chan outcome
	deadline int64
}

// waiterChans recycles outcome channels across operations.
var waiterChans = sync.Pool{New: func() any { return make(chan outcome, 1) }}

// epoch anchors waiter deadlines on the monotonic clock.
var epoch = time.Now()

// sweepTick is how often the sweeper expires overdue waiters, and so
// the most a timeout can resolve late.
const sweepTick = 5 * time.Millisecond

// New creates a client on the given endpoint. n is the number of
// replicas (targets are drawn uniformly, like the paper's clients);
// payloadSize pads each transaction (Table I "psize").
func New(ep network.Transport, n, payloadSize int, seed int64) *Client {
	c := &Client{
		ep:          ep,
		id:          uint64(ep.Self()),
		n:           n,
		payloadSize: payloadSize,
		rng:         rand.New(rand.NewSource(seed)),
		gen:         workload.NewNoop(payloadSize),
		latency:     &metrics.Latency{},
		waiters:     make(map[types.TxID]waiter),
		pendingOpen: make(map[types.TxID]time.Time),
		stopCh:      make(chan struct{}),
	}
	c.wg.Add(1)
	go c.replyLoop()
	return c
}

// Latency exposes the client-side latency histogram.
func (c *Client) Latency() *metrics.Latency { return c.latency }

// Committed returns the number of confirmed transactions.
func (c *Client) Committed() uint64 { return c.committed.Load() }

// Rejected returns the number of pool-rejected transactions.
func (c *Client) Rejected() uint64 { return c.rejected.Load() }

// Retries returns the number of resubmissions made after rejections —
// the client-side cost of the pool's admission control.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// Shed returns the number of open-loop arrivals the pacer dropped
// because it fell behind the declared rate.
func (c *Client) Shed() uint64 { return c.shed.Load() }

// replyLoop demultiplexes commit confirmations.
func (c *Client) replyLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		case env, ok := <-c.ep.Inbox():
			if !ok {
				return
			}
			reply, ok := env.Msg.(types.ReplyMsg)
			if !ok {
				continue
			}
			c.resolve(reply)
		}
	}
}

// resolve settles the waiter or open-loop sample a reply belongs to and
// counts the outcome. Counting happens before the waiter is woken, so a
// caller that saw true also sees its commit in Committed.
func (c *Client) resolve(reply types.ReplyMsg) {
	c.mu.Lock()
	w, found := c.waiters[reply.TxID]
	if found {
		delete(c.waiters, reply.TxID)
	}
	submitted, sampled := c.pendingOpen[reply.TxID]
	if sampled {
		delete(c.pendingOpen, reply.TxID)
	}
	countUntracked := c.openLoop && !c.fanout
	c.mu.Unlock()
	if reply.Rejected {
		// Count each rejection that resolves a tracked transaction once
		// here (fanout duplicates resolve nothing and are not double
		// counted).
		if found || sampled {
			c.rejected.Add(1)
		}
		if found {
			w.ch <- outRejected
		}
		return
	}
	if sampled {
		c.latency.Record(time.Since(submitted))
	}
	// Every commit reply that resolves a waiter or a sample is one
	// committed transaction, and so is a reply to an unsampled open-loop
	// transaction — per-client throughput (the fairness input) counts
	// all commits, not just the latency sample. A reply that resolves
	// nothing otherwise is a fanout duplicate or arrived after its
	// operation expired or was stopped, and is not counted.
	if found || sampled || countUntracked {
		c.committed.Add(1)
	}
	if found {
		w.ch <- outCommitted
	}
}

// SetWorkload installs the command generator behind every submitted
// transaction; nil restores the default padded no-op. Generators are
// shared by all of the client's workers, so the installed value must
// be safe for concurrent use (the workload built-ins are).
func (c *Client) SetWorkload(g workload.Generator) {
	if g == nil {
		g = workload.NewNoop(c.payloadSize)
	}
	c.mu.Lock()
	c.gen = g
	c.mu.Unlock()
}

// nextTx builds a fresh benchmark transaction from the workload
// generator, stamped as submitted at now.
func (c *Client) nextTx(now time.Time) types.Transaction {
	c.mu.Lock()
	c.seq++
	seq := c.seq
	gen := c.gen
	c.mu.Unlock()
	return types.Transaction{
		ID:             types.TxID{Client: c.id, Seq: seq},
		Command:        gen.Next(),
		SubmitUnixNano: now.UnixNano(),
	}
}

// pickReplica draws a uniformly random replica.
func (c *Client) pickReplica() types.NodeID {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return types.NodeID(c.rng.Intn(c.n) + 1)
}

// SetFanout makes the client broadcast each transaction to every
// replica instead of one chosen at random — the alternative client
// design choice discussed in Section V-E. The engine's commit scrub
// keeps duplicates out of the chain; the first commit reply wins.
func (c *Client) SetFanout(all bool) {
	c.mu.Lock()
	c.fanout = all
	c.mu.Unlock()
}

// submit registers w under the transaction's ID and sends it. It
// returns false, sending nothing, once Stop has begun.
func (c *Client) submit(tx types.Transaction, w waiter) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.waiters[tx.ID] = w
	if w.deadline != 0 && !c.sweeping {
		c.sweeping = true
		c.wg.Add(1)
		go c.sweep()
	}
	fanout := c.fanout
	c.mu.Unlock()
	if fanout {
		for id := 1; id <= c.n; id++ {
			c.ep.Send(types.NodeID(id), types.RequestMsg{Tx: tx})
		}
		return true
	}
	c.ep.Send(c.pickReplica(), types.RequestMsg{Tx: tx})
	return true
}

// sweep expires overdue waiters every sweepTick until Stop.
func (c *Client) sweep() {
	defer c.wg.Done()
	tick := time.NewTicker(sweepTick)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-tick.C:
		}
		now := int64(time.Since(epoch))
		c.mu.Lock()
		// The sends below cannot block: the channel has one slot and
		// the goroutine that removes a waiter is its only sender.
		for id, w := range c.waiters {
			if w.deadline != 0 && w.deadline <= now {
				delete(c.waiters, id)
				w.ch <- outExpired
			}
		}
		c.mu.Unlock()
	}
}

// Retry policy for admission rejections: a rejected transaction is
// resubmitted with exponential backoff up to submitMaxRetries times
// before SubmitAndWait gives up. Each resubmission is counted in
// Retries; each rejection in Rejected.
const (
	submitMaxRetries   = 6
	submitBaseBackoff  = time.Millisecond
	submitBackoffLimit = 32 * time.Millisecond
)

// SubmitAndWait issues one transaction and blocks until it commits,
// the timeout passes (resolved by the sweeper, up to one sweepTick
// late), or the client stops; timeout <= 0 waits without a deadline. A
// pool rejection is retried with exponential backoff (the same
// transaction, resubmitted) up to submitMaxRetries times, within the
// same deadline; the recorded latency spans the whole operation
// including backoff, so admission control's client-side cost is
// visible in the histogram. It returns true on commit.
func (c *Client) SubmitAndWait(timeout time.Duration) bool {
	start := time.Now()
	tx := c.nextTx(start)
	w := waiter{ch: waiterChans.Get().(chan outcome)}
	// The channel is empty whenever the call returns: every path below
	// either received the single outcome or never registered the waiter.
	defer waiterChans.Put(w.ch)
	if timeout > 0 {
		w.deadline = int64(start.Sub(epoch) + timeout)
	}
	backoff := submitBaseBackoff
	for attempt := 0; ; attempt++ {
		if !c.submit(tx, w) {
			return false
		}
		switch <-w.ch {
		case outCommitted:
			// Committed was counted by the reply loop; only the
			// whole-operation latency (including backoff spent on
			// retries) is recorded here.
			c.latency.Record(time.Since(start))
			return true
		case outRejected:
			// Rejected (counted by the reply loop). Back off and
			// resubmit unless the retry budget or the deadline is spent.
			if attempt >= submitMaxRetries || !c.backOff(backoff, w.deadline) {
				return false
			}
			if backoff *= 2; backoff > submitBackoffLimit {
				backoff = submitBackoffLimit
			}
			c.retries.Add(1)
		default: // expired or stopped
			return false
		}
	}
}

// backOff sleeps d before a resubmission, and reports false instead
// when the deadline (0: none) would pass first or the client stops.
func (c *Client) backOff(d time.Duration, deadline int64) bool {
	if deadline != 0 && int64(time.Since(epoch)+d) >= deadline {
		return false
	}
	wait := time.NewTimer(d)
	defer wait.Stop()
	select {
	case <-wait.C:
		return true
	case <-c.stopCh:
		return false
	}
}

// RunClosedLoop starts `concurrency` workers, each keeping one request
// in flight until Stop — the paper's benchmark driver. perOpTimeout
// bounds each wait so workers survive stalled protocols.
func (c *Client) RunClosedLoop(concurrency int, perOpTimeout time.Duration) {
	for i := 0; i < concurrency; i++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			// One reusable backoff timer per worker: under sustained
			// backpressure every iteration backs off, and a fresh
			// time.After allocation per retry is pure churn.
			backoff := time.NewTimer(0)
			if !backoff.Stop() {
				<-backoff.C
			}
			defer backoff.Stop()
			for {
				select {
				case <-c.stopCh:
					return
				default:
				}
				if !c.SubmitAndWait(perOpTimeout) {
					// Back off briefly after a rejection or stall
					// so a saturated pool is not hammered.
					backoff.Reset(2 * time.Millisecond)
					select {
					case <-backoff.C:
					case <-c.stopCh:
						return
					}
				}
			}
		}()
	}
}

// RunOpenLoop fires transactions as a Poisson process with the given
// rate (transactions/second) until Stop, without waiting for replies —
// paced by workload.Pace. A sample of transactions (about 2000/s) is
// tracked for client-side latency, stamped at the *intended* arrival
// time, not the actual send — the coordinated-omission correction.
func (c *Client) RunOpenLoop(rate float64) {
	if rate <= 0 {
		return
	}
	c.mu.Lock()
	c.openLoop = true
	c.mu.Unlock()
	sampleEvery := uint64(rate / 2000)
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	draw := func(mean float64) int {
		c.rngMu.Lock()
		defer c.rngMu.Unlock()
		return workload.Poisson(c.rng, mean)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		workload.Pace(c.stopCh, rate, draw, func(intended time.Time) {
			tx := c.nextTx(time.Now())
			if tx.ID.Seq%sampleEvery == 0 {
				c.mu.Lock()
				if len(c.pendingOpen) > 1<<16 {
					// Shed stale samples (replies lost to a stalled
					// protocol) instead of leaking.
					c.pendingOpen = make(map[types.TxID]time.Time)
				}
				c.pendingOpen[tx.ID] = intended
				c.mu.Unlock()
			}
			c.ep.Send(c.pickReplica(), types.RequestMsg{Tx: tx})
		}, func(n int) { c.shed.Add(uint64(n)) })
	}()
}

// Stop terminates workers, the reply loop and the sweeper. Every
// operation still waiting resolves at once as stopped (SubmitAndWait
// returns false), and no new one registers.
func (c *Client) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		for id, w := range c.waiters {
			delete(c.waiters, id)
			w.ch <- outStopped
		}
		c.mu.Unlock()
		close(c.stopCh)
		c.wg.Wait()
		_ = c.ep.Close()
	})
}

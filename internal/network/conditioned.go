package network

import (
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Conditioned wraps a Transport with the same Conditions model the
// in-process switch enforces, so a declared fault schedule means the
// same thing over real sockets as it does in simulation. Every
// outgoing message is judged at send time (partition and crash drops,
// random loss, modeled delay). A delayed message waits in the shim's
// own delivery scheduler — the switch's deadline heap, one goroutine
// and one timer per shim, started by the first delayed send — and is
// re-checked at its deadline, so a destination that crashed while it
// was in flight gets nothing, as on the switch. Incoming traffic is
// discarded while the local node is crashed. The wrapper leaves the
// wire format and the underlying transport untouched; it only decides
// which messages reach it, and when.
type Conditioned struct {
	inner Transport
	cond  *Conditions
	// replicas is the broadcast domain judged per destination; nil for
	// endpoints that never broadcast (clients).
	replicas []types.NodeID
	out      chan Envelope
	done     chan struct{}
	wg       sync.WaitGroup
	// sched holds delayed sends until their deadlines.
	sched *scheduler

	closeOnce sync.Once
	dropped   metrics.Counter
}

// Condition wraps inner with the shared condition model.
func Condition(inner Transport, cond *Conditions, replicas []types.NodeID) *Conditioned {
	c := &Conditioned{
		inner:    inner,
		cond:     cond,
		replicas: append([]types.NodeID(nil), replicas...),
		out:      make(chan Envelope, inboxCapacity),
		done:     make(chan struct{}),
	}
	c.sched = newScheduler(c.sendDue)
	c.wg.Add(1)
	go c.pump()
	return c
}

// Self implements Transport.
func (c *Conditioned) Self() types.NodeID { return c.inner.Self() }

// Send implements Transport, judging the message against the condition
// model before it reaches the wire. One clock reading serves both the
// judgement and the deadline.
func (c *Conditioned) Send(to types.NodeID, msg any) {
	now := time.Now()
	v := c.cond.judge(c.inner.Self(), to, messageSize(msg), now)
	if v.drop {
		c.dropped.Add(1)
		return
	}
	if v.delay <= 0 {
		c.inner.Send(to, msg)
		return
	}
	c.sched.schedule(delivery{at: now.Add(v.delay), to: to, msg: msg})
}

// sendDue hands a delayed message to the wire at its deadline. Crash
// state is re-checked here, like the switch's delivery-time check: a
// node that crashed mid-flight gets nothing.
func (c *Conditioned) sendDue(d delivery) {
	if c.cond.IsCrashed(d.to) {
		c.dropped.Add(1)
		return
	}
	c.inner.Send(d.to, d.msg)
}

// Broadcast implements Transport, judging each destination separately
// so a partition can split one broadcast's audience.
func (c *Conditioned) Broadcast(msg any) {
	self := c.inner.Self()
	for _, id := range c.replicas {
		if id != self {
			c.Send(id, msg)
		}
	}
}

// Inbox implements Transport.
func (c *Conditioned) Inbox() <-chan Envelope { return c.out }

// pump filters the inner inbox: traffic arriving while the local node
// is crashed is discarded, so a crashed replica is silent in both
// directions even though its sockets still accept bytes.
func (c *Conditioned) pump() {
	defer c.wg.Done()
	defer close(c.out)
	self := c.inner.Self()
	for {
		select {
		case <-c.done:
			return
		case env, ok := <-c.inner.Inbox():
			if !ok {
				return
			}
			if c.cond.IsCrashed(self) {
				c.dropped.Add(1)
				continue
			}
			select {
			case c.out <- env:
			case <-c.done:
				return
			}
		}
	}
}

// Stats merges the underlying transport's counters with the messages
// this shim dropped by condition.
func (c *Conditioned) Stats() TransportStats {
	var s TransportStats
	if st, ok := c.inner.(interface{ Stats() TransportStats }); ok {
		s = st.Stats()
	}
	s.Dropped += c.dropped.Load()
	return s
}

// Close implements Transport: it stops the delay scheduler (pending
// delayed sends are dropped), closes the underlying transport, and
// joins the filter goroutine. Safe to call more than once.
func (c *Conditioned) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		c.sched.stop()
		err = c.inner.Close()
		c.wg.Wait()
	})
	return err
}

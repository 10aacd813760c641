package network

import (
	"sync"

	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Conditioned wraps a Transport with the same Conditions model the
// in-process switch enforces, so a declared fault schedule means the
// same thing over real sockets as it does in simulation. Every
// outgoing message goes through Conditions.route, the switch's own
// path: it is judged at send time (partition and crash drops, random
// loss, modeled delay), and a delayed message waits on the model's
// delivery scheduler — shared by every shim attached to the model —
// and is re-checked at its deadline, so a destination that crashed
// while it was in flight gets nothing. A crashed node is silent as on
// the switch: nothing judged after the crash reaches it, and it still
// reads what its inbox already held. The wrapper leaves the wire
// format, the underlying transport and its inbox untouched; it only
// decides which messages reach the wire, and when.
type Conditioned struct {
	inner Transport
	cond  *Conditions
	// replicas is the broadcast domain judged per destination; nil for
	// endpoints that never broadcast (clients).
	replicas []types.NodeID

	closeOnce sync.Once
	dropped   metrics.Counter
}

// Condition wraps inner with the shared condition model.
func Condition(inner Transport, cond *Conditions, replicas []types.NodeID) *Conditioned {
	cond.sched.attach()
	return &Conditioned{
		inner:    inner,
		cond:     cond,
		replicas: append([]types.NodeID(nil), replicas...),
	}
}

// Self implements Transport.
func (c *Conditioned) Self() types.NodeID { return c.inner.Self() }

// Send implements Transport, applying the condition model before the
// message reaches the wire.
func (c *Conditioned) Send(to types.NodeID, msg any) {
	c.cond.route(c, c.inner.Self(), to, msg)
}

// handOff writes a message the model let through to the wire.
func (c *Conditioned) handOff(_, to types.NodeID, msg any, _ int) { c.inner.Send(to, msg) }

// drop counts a message the model dropped.
func (c *Conditioned) drop() { c.dropped.Add(1) }

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

// Inbox implements Transport: the wrapped transport's own inbox.
func (c *Conditioned) Inbox() <-chan Envelope { return c.inner.Inbox() }

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

// Close implements Transport: it detaches the shim from the condition
// model — the last transport to detach stops the model's scheduler and
// drops the delayed messages it holds — and closes the underlying
// transport. Safe to call more than once.
func (c *Conditioned) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.cond.sched.detach()
		err = c.inner.Close()
	})
	return err
}

package network

import (
	"errors"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// inboxCapacity is the per-endpoint queue depth. It is deliberately
// deep: it plays the role of socket buffers, and dropping consensus
// messages under load distorts liveness rather than modelling it.
const inboxCapacity = 1 << 14

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("network: endpoint closed")

// Switch is the in-process network: a set of endpoints exchanging
// messages through buffered channels, with delivery fate and timing
// decided by a Conditions model. It is safe for concurrent use.
//
// Delayed deliveries run through one scheduler goroutine with a
// deadline heap rather than one runtime timer per message: at
// consensus message rates (10⁵/s) per-message timers overwhelm small
// hosts and their firing jitter would distort the very delays being
// modeled.
type Switch struct {
	cond *Conditions

	mu        sync.RWMutex
	endpoints map[types.NodeID]*Endpoint
	replicas  []types.NodeID // broadcast domain, sorted by insertion

	sched *scheduler

	// Counters for message-complexity reporting.
	msgsSent  metrics.Counter
	bytesSent metrics.Counter
	dropped   metrics.Counter
}

// NewSwitch creates a switch governed by cond; a nil cond means a
// perfect, zero-latency network.
func NewSwitch(cond *Conditions) *Switch {
	if cond == nil {
		cond = NewConditions(0)
	}
	s := &Switch{
		cond:      cond,
		endpoints: make(map[types.NodeID]*Endpoint),
	}
	s.sched = newScheduler(s.deliverDue)
	return s
}

// Close stops the delivery scheduler and waits for it to exit; pending
// delayed messages are dropped. Endpoints must not be used afterwards.
func (s *Switch) Close() {
	s.sched.stop()
}

// Conditions exposes the switch's condition model for fault injection.
func (s *Switch) Conditions() *Conditions { return s.cond }

// Join registers a replica endpoint: it receives broadcasts.
func (s *Switch) Join(id types.NodeID) (*Endpoint, error) {
	return s.join(id, true)
}

// JoinClient registers a client endpoint: it can send and receive
// directed messages but is excluded from the broadcast domain.
func (s *Switch) JoinClient(id types.NodeID) (*Endpoint, error) {
	return s.join(id, false)
}

func (s *Switch) join(id types.NodeID, replica bool) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.endpoints[id]; dup {
		return nil, errors.New("network: node already joined")
	}
	ep := &Endpoint{
		id:    id,
		sw:    s,
		inbox: make(chan Envelope, inboxCapacity),
		done:  make(chan struct{}),
	}
	s.endpoints[id] = ep
	if replica {
		s.replicas = append(s.replicas, id)
	}
	return ep, nil
}

// Stats reports switch-wide counters: messages delivered, bytes
// delivered, and messages dropped by conditions or backpressure.
func (s *Switch) Stats() (msgs, bytes, dropped uint64) {
	return s.msgsSent.Load(), s.bytesSent.Load(), s.dropped.Load()
}

// deliver routes one message, applying network conditions. One clock
// reading serves both the judgement and the deadline.
func (s *Switch) deliver(from, to types.NodeID, msg any) {
	size := messageSize(msg)
	now := time.Now()
	v := s.cond.judge(from, to, size, now)
	if v.drop {
		s.dropped.Add(1)
		return
	}
	if v.delay <= 0 {
		s.enqueue(from, to, msg, size)
		return
	}
	s.sched.schedule(delivery{
		at:   now.Add(v.delay),
		from: from,
		to:   to,
		msg:  msg,
		size: size,
	})
}

// deliverDue completes a scheduled delivery.
func (s *Switch) deliverDue(d delivery) {
	// Re-check crash state at delivery time so a node that crashed
	// mid-flight does not receive late messages.
	if s.cond.IsCrashed(d.to) {
		s.dropped.Add(1)
		return
	}
	s.enqueue(d.from, d.to, d.msg, d.size)
}

func (s *Switch) enqueue(from, to types.NodeID, msg any, size int) {
	s.mu.RLock()
	ep, ok := s.endpoints[to]
	s.mu.RUnlock()
	if !ok {
		s.dropped.Add(1)
		return
	}
	select {
	case ep.inbox <- Envelope{From: from, Msg: msg}:
		s.msgsSent.Add(1)
		s.bytesSent.Add(uint64(size))
	case <-ep.done:
		s.dropped.Add(1)
	default:
		// Inbox overflow models NIC queue loss.
		s.dropped.Add(1)
	}
}

// Endpoint is one node's attachment to the switch.
type Endpoint struct {
	id    types.NodeID
	sw    *Switch
	inbox chan Envelope
	done  chan struct{}
	once  sync.Once
}

// Self implements Transport.
func (e *Endpoint) Self() types.NodeID { return e.id }

// Send implements Transport.
func (e *Endpoint) Send(to types.NodeID, msg any) {
	select {
	case <-e.done:
		return
	default:
	}
	e.sw.deliver(e.id, to, msg)
}

// Broadcast implements Transport: the message goes to every replica
// endpoint except the sender. Clients are not part of the broadcast
// domain.
func (e *Endpoint) Broadcast(msg any) {
	select {
	case <-e.done:
		return
	default:
	}
	e.sw.mu.RLock()
	targets := make([]types.NodeID, 0, len(e.sw.replicas))
	for _, id := range e.sw.replicas {
		if id != e.id {
			targets = append(targets, id)
		}
	}
	e.sw.mu.RUnlock()
	for _, id := range targets {
		e.sw.deliver(e.id, id, msg)
	}
}

// Inbox implements Transport.
func (e *Endpoint) Inbox() <-chan Envelope { return e.inbox }

// Close implements Transport. It detaches the endpoint; in-flight
// messages to it are dropped.
func (e *Endpoint) Close() error {
	e.once.Do(func() {
		close(e.done)
		e.sw.mu.Lock()
		delete(e.sw.endpoints, e.id)
		for i, id := range e.sw.replicas {
			if id == e.id {
				e.sw.replicas = append(e.sw.replicas[:i], e.sw.replicas[i+1:]...)
				break
			}
		}
		e.sw.mu.Unlock()
	})
	return nil
}

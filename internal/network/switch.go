package network

import (
	"errors"
	"sync"

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
// decided by a Conditions model. Delayed messages wait on the model's
// delivery scheduler (see Conditions.route), which hands them back to
// the switch at their deadlines. It is safe for concurrent use.
type Switch struct {
	cond *Conditions

	mu        sync.RWMutex
	endpoints map[types.NodeID]*Endpoint
	replicas  []types.NodeID // broadcast domain, sorted by insertion

	closeOnce sync.Once

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
	cond.sched.attach()
	return &Switch{
		cond:      cond,
		endpoints: make(map[types.NodeID]*Endpoint),
	}
}

// Close detaches the switch from its condition model; when nothing
// else is attached, the model's scheduler stops and pending delayed
// messages are dropped. Endpoints must not be used afterwards. Safe to
// call more than once.
func (s *Switch) Close() {
	s.closeOnce.Do(s.cond.sched.detach)
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

// handOff puts a message the model let through into the
// destination's inbox.
func (s *Switch) handOff(from, to types.NodeID, msg any, size int) {
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

// drop counts a message the model dropped.
func (s *Switch) drop() { s.dropped.Add(1) }

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
	e.sw.cond.route(e.sw, e.id, to, msg)
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
		e.sw.cond.route(e.sw, e.id, id, msg)
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

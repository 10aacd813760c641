// Package network provides the message-passing layer (modeled after
// the Paxi network module the paper reuses): a Transport interface
// with two implementations — an in-process channel switch supporting
// the paper's delay, bandwidth, partition, fluctuation, and crash
// modelling for single-machine simulation, and a TCP transport for
// multi-process deployment.
package network

import (
	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Envelope pairs a message with its sender.
type Envelope struct {
	From types.NodeID
	Msg  any
}

// Transport is the interface replicas and in-process clients use to
// exchange messages. Send and Broadcast never block on slow peers;
// delivery is best-effort, exactly like a datagram network after the
// paper's GST assumption is dropped.
type Transport interface {
	// Self returns the local node ID.
	Self() types.NodeID
	// Send delivers msg to one peer.
	Send(to types.NodeID, msg any)
	// Broadcast delivers msg to every registered replica except
	// the sender itself.
	Broadcast(msg any)
	// Inbox streams incoming envelopes until Close.
	Inbox() <-chan Envelope
	// Close detaches the endpoint and releases resources.
	Close() error
}

// TransportStats counts one endpoint's traffic. The TCP transport and
// the Conditioned shim implement `Stats() TransportStats`; the switch
// keeps switch-wide counters instead (Switch.Stats). Msgs and Bytes
// count successfully written messages (actual framed wire bytes on
// TCP); Dropped counts messages lost to full queues, failed dials,
// write errors, or — through the shim — network conditions.
type TransportStats struct {
	Msgs    uint64 `json:"msgs"`
	Bytes   uint64 `json:"bytes"`
	Dropped uint64 `json:"dropped"`
	// Dials counts successful outbound connections; Redials the subset
	// that replaced an earlier connection to the same peer (reconnect
	// traffic after restarts and resets). Accepted counts inbound
	// connections.
	Dials    uint64 `json:"dials,omitempty"`
	Redials  uint64 `json:"redials,omitempty"`
	Accepted uint64 `json:"accepted,omitempty"`
}

// Add accumulates other's counters — aggregation across a deployment's
// endpoints.
func (s *TransportStats) Add(other TransportStats) {
	s.Msgs += other.Msgs
	s.Bytes += other.Bytes
	s.Dropped += other.Dropped
	s.Dials += other.Dials
	s.Redials += other.Redials
	s.Accepted += other.Accepted
}

// messageSize returns the wire size of a message for bandwidth
// modelling. Every registered protocol message is charged its exact
// framed size from the codec — the same bytes the TCP transport
// counts when it writes the frame — so the switch's bandwidth model
// and TransportStats agree between backends by construction instead
// of by hand-maintained estimates. Unregistered values (test traffic,
// extensions) are charged a fixed header cost.
func messageSize(msg any) int {
	if n, ok := codec.EncodedSize(msg); ok {
		return n
	}
	return 64
}

package network

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// outboundDepth bounds each peer's send queue; overflow drops the
// message, preserving the Transport contract that sends never block
// (datagram semantics — a blocked consensus loop is a deadlock risk,
// a dropped message is just a retransmit).
const outboundDepth = 1 << 12

// dialTimeout bounds one connection attempt; dialCooldown is how long
// a peer's writer drops messages after a failed attempt before dialing
// again, so a dead peer costs one SYN per cooldown instead of one per
// queued message.
const (
	dialTimeout  = time.Second
	dialCooldown = 50 * time.Millisecond
)

// TCP is a Transport connecting replicas over persistent TCP
// connections carrying the codec's self-delimiting binary frames —
// the deployment path for multi-machine experiments. Outbound writes
// coalesce: a writer drains its whole pending queue through the
// encoder and flushes once, so a burst of votes costs one syscall
// instead of one per message. Because frames are stateless, a
// malformed or oversized frame (either direction) costs one message,
// counted in TransportStats.Dropped — never the connection.
// It carries no condition model itself:
// wrap it in Condition to give a scheduled scenario's partitions,
// delays, and drops the same meaning they have on the in-process
// switch, or use it bare to observe the real network.
type TCP struct {
	self     types.NodeID
	listener net.Listener
	inbox    chan Envelope
	done     chan struct{}
	wg       sync.WaitGroup
	// ctx cancels in-flight dials at Close, so shutdown never waits
	// out a connection attempt to a dead peer.
	ctx       context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
	closeErr  error

	mu    sync.Mutex
	addrs map[types.NodeID]string
	peers map[types.NodeID]*tcpPeer
	// conns tracks every live connection (accepted and dialed), so
	// Close and ResetPeerConns can unblock goroutines parked in reads
	// and writes by closing the sockets under them.
	conns map[net.Conn]struct{}
	// replicas is the broadcast domain, fixed at construction from the
	// address map's keys; addresses learned later through SetPeerAddr
	// (clients, in harness deployments) are dialable but not
	// broadcast targets, mirroring the switch's replica/client split.
	replicas []types.NodeID

	msgs    metrics.Counter
	bytes   metrics.Counter
	dropped metrics.Counter
	dials   metrics.Counter
	redials metrics.Counter
	accepts metrics.Counter
}

type tcpPeer struct {
	outbound chan any
	// reset asks the writer to tear down its connection and re-dial on
	// the next message (crash faults, address changes).
	reset chan struct{}
	// dialed is writer-local state: a first dial has succeeded, so any
	// further dial counts as a redial.
	dialed bool
}

// NewTCP starts listening on addrs[self] and returns the transport.
// The map's keys fix the broadcast domain; a peer's value may be left
// empty when its address is only known later (ephemeral ":0" ports),
// to be filled in with SetPeerAddr before traffic flows. Peer
// connections are dialed lazily by per-peer writer goroutines.
func NewTCP(self types.NodeID, addrs map[types.NodeID]string) (*TCP, error) {
	addr, ok := addrs[self]
	if !ok || addr == "" {
		return nil, fmt.Errorf("network: no listen address for self %s", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCP{
		self:     self,
		addrs:    make(map[types.NodeID]string, len(addrs)),
		listener: ln,
		inbox:    make(chan Envelope, inboxCapacity),
		done:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
		peers:    make(map[types.NodeID]*tcpPeer),
		conns:    make(map[net.Conn]struct{}),
	}
	for id, a := range addrs {
		t.addrs[id] = a
		t.replicas = append(t.replicas, id)
	}
	sort.Slice(t.replicas, func(i, j int) bool { return t.replicas[i] < t.replicas[j] })
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0" ports).
func (t *TCP) Addr() string { return t.listener.Addr().String() }

// SetPeerAddr updates a peer's dial address — used with ephemeral
// listen ports, where addresses are only known after every transport
// has bound, and to teach replicas where a late-joining client
// listens. The peer's writer (re)dials on its next send.
func (t *TCP) SetPeerAddr(id types.NodeID, addr string) {
	t.mu.Lock()
	t.addrs[id] = addr
	t.mu.Unlock()
}

func (t *TCP) peerAddr(id types.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.addrs[id]
	return a, ok
}

// track registers a live connection for teardown; it refuses (and the
// caller must close the conn) once the transport is closing, so no
// socket can slip past Close.
func (t *TCP) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		return false
	default:
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *TCP) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// liveConns snapshots the tracked connections for closing outside the
// lock.
func (t *TCP) liveConns() []net.Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	return conns
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				continue
			}
		}
		if !t.track(conn) {
			_ = conn.Close()
			return
		}
		t.accepts.Add(1)
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.untrack(conn)
		_ = conn.Close()
	}()
	dec := codec.NewDecoder(conn)
	for {
		env, err := dec.Decode()
		if err != nil {
			if codec.Recoverable(err) {
				// A malformed or oversized frame costs exactly that
				// frame: count the lost message and keep serving the
				// connection. Tearing it down here would hand a
				// hostile peer a dial-storm lever and an honest bug a
				// reconnect tax.
				t.dropped.Add(1)
				continue
			}
			// Clean EOF, reset, or a truncated stream: the connection
			// is dead; the sender re-dials if it still cares.
			return
		}
		select {
		case t.inbox <- Envelope{From: env.From, Msg: env.Msg}:
		case <-t.done:
			return
		default:
			// Inbox overflow: drop, like a full socket buffer.
			t.dropped.Add(1)
		}
	}
}

// Self implements Transport.
func (t *TCP) Self() types.NodeID { return t.self }

// Send implements Transport. The message is queued for the peer's
// writer goroutine; a full queue or connection failure drops it —
// the same datagram semantics as the in-process switch.
func (t *TCP) Send(to types.NodeID, msg any) {
	select {
	case <-t.done:
		return
	default:
	}
	peer := t.getPeer(to)
	if peer == nil {
		t.dropped.Add(1)
		return
	}
	select {
	case peer.outbound <- msg:
	default:
		// Peer queue full: drop.
		t.dropped.Add(1)
	}
}

// getPeer returns (creating if needed) the peer's queue and writer,
// or nil once Close has begun, so no writer starts after Close has
// counted the ones to wait for.
func (t *TCP) getPeer(to types.NodeID) *tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.done:
		return nil
	default:
	}
	peer, ok := t.peers[to]
	if !ok {
		if _, known := t.addrs[to]; !known {
			return nil
		}
		peer = &tcpPeer{
			outbound: make(chan any, outboundDepth),
			reset:    make(chan struct{}, 1),
		}
		t.peers[to] = peer
		t.wg.Add(1)
		go t.writeLoop(to, peer)
	}
	return peer
}

// writeLoop drains one peer's queue over a lazily (re)dialed
// connection. Failed dials back off for dialCooldown (dropping queued
// messages meanwhile) so an unreachable peer is probed at a bounded
// rate instead of once per message. Writes coalesce: after the
// blocking receive that starts a batch, the loop opportunistically
// drains whatever else is queued through the encoder and flushes
// once — under consensus bursts (a proposal plus its fan-out of
// votes and payload batches) that collapses per-message syscalls
// into one buffered write.
func (t *TCP) writeLoop(to types.NodeID, peer *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	var enc *codec.Encoder
	var retryAt time.Time
	closeConn := func() {
		if conn != nil {
			t.untrack(conn)
			_ = conn.Close()
			conn, enc = nil, nil
		}
	}
	defer closeConn()
	// encode stages one message on the open connection. A recoverable
	// codec error (oversized or unregistered message) costs only that
	// message — frames are stateless, so the stream stays aligned and
	// the connection survives. An I/O error kills the connection.
	encode := func(msg any) {
		n, err := enc.Encode(codec.Envelope{From: t.self, Msg: msg})
		if err != nil {
			t.dropped.Add(1)
			if !codec.Recoverable(err) {
				closeConn()
			}
			return
		}
		t.msgs.Add(1)
		t.bytes.Add(uint64(n))
	}
	for {
		var msg any
		select {
		case <-t.done:
			return
		case <-peer.reset:
			closeConn()
			continue
		case msg = <-peer.outbound:
		}
		// A reset racing with the message tears the connection down
		// first; the message then re-dials like any other.
		select {
		case <-peer.reset:
			closeConn()
		default:
		}
		if conn == nil {
			addr, ok := t.peerAddr(to)
			if !ok || addr == "" {
				t.dropped.Add(1)
				continue
			}
			if time.Now().Before(retryAt) {
				t.dropped.Add(1)
				continue
			}
			dctx, cancel := context.WithTimeout(t.ctx, dialTimeout)
			c, err := (&net.Dialer{}).DialContext(dctx, "tcp", addr)
			cancel()
			if err != nil {
				retryAt = time.Now().Add(dialCooldown)
				t.dropped.Add(1)
				continue
			}
			if !t.track(c) {
				_ = c.Close()
				return
			}
			if peer.dialed {
				t.redials.Add(1)
			}
			peer.dialed = true
			t.dials.Add(1)
			conn, enc = c, codec.NewEncoder(c)
		}
		encode(msg)
		// Drain the backlog into the same buffered write before
		// flushing. The encoder's own buffer bounds memory; a dead
		// connection (conn == nil) stops the batch and the remaining
		// queue re-dials on the next outer iteration.
	coalesce:
		for conn != nil {
			select {
			case msg = <-peer.outbound:
				encode(msg)
			default:
				break coalesce
			}
		}
		if conn != nil {
			if err := enc.Flush(); err != nil {
				// The batch's messages were already counted as sent;
				// like bytes parked in a kernel buffer at reset time,
				// their fate is unknowable. The connection is not.
				closeConn()
			}
		}
	}
}

// Broadcast implements Transport: the message goes to every replica in
// the construction-time broadcast domain except the sender. Peers
// learned later via SetPeerAddr (clients) are excluded, like the
// switch's client endpoints.
func (t *TCP) Broadcast(msg any) {
	for _, id := range t.replicas {
		if id != t.self {
			t.Send(id, msg)
		}
	}
}

// Inbox implements Transport. The channel closes once Close has torn
// the transport down, so consumers can drain and exit.
func (t *TCP) Inbox() <-chan Envelope { return t.inbox }

// ResetPeerConns tears down every live connection — writers close
// theirs and re-dial lazily on their next send; inbound connections
// die under their readers, and the remote ends re-dial the same way.
// The harness uses it to give a scheduled crash real socket
// consequences (peers observe resets and exercise their reconnect
// paths) instead of only silently eating messages. The listener stays
// up; the transport remains usable.
func (t *TCP) ResetPeerConns() {
	t.mu.Lock()
	for _, p := range t.peers {
		select {
		case p.reset <- struct{}{}:
		default:
		}
	}
	t.mu.Unlock()
	for _, c := range t.liveConns() {
		_ = c.Close()
	}
}

// Stats reports this endpoint's traffic counters.
func (t *TCP) Stats() TransportStats {
	return TransportStats{
		Msgs:     t.msgs.Load(),
		Bytes:    t.bytes.Load(),
		Dropped:  t.dropped.Load(),
		Dials:    t.dials.Load(),
		Redials:  t.redials.Load(),
		Accepted: t.accepts.Load(),
	}
}

// Close implements Transport: it stops the listener, closes every live
// connection (unblocking parked readers and writers), cancels
// in-flight dials, waits for all goroutines, and finally closes the
// inbox so consumers see end-of-stream. Safe to call more than once.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.mu.Lock()
		close(t.done)
		t.mu.Unlock()
		t.cancel()
		t.closeErr = t.listener.Close()
		for _, c := range t.liveConns() {
			_ = c.Close()
		}
		t.wg.Wait()
		close(t.inbox)
	})
	return t.closeErr
}

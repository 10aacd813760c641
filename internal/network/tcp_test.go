package network

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// newTCPPair stands up two wired transports on loopback ephemeral
// ports.
func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP(1, map[types.NodeID]string{1: "127.0.0.1:0", 2: ""})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(2, map[types.NodeID]string{1: "", 2: "127.0.0.1:0"})
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	a.SetPeerAddr(2, b.Addr())
	b.SetPeerAddr(1, a.Addr())
	return a, b
}

// recvQuery waits for one QueryMsg with the wanted height, resending
// via send until it arrives — TCP sends are datagrams here (a send
// racing a dead connection is dropped), so tests must offer the
// message until the transport has reconnected.
func recvQuery(t *testing.T, tr *TCP, want uint64, send func()) Envelope {
	t.Helper()
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		send()
		select {
		case env, ok := <-tr.Inbox():
			if !ok {
				t.Fatal("inbox closed while waiting")
			}
			if q, isQ := env.Msg.(types.QueryMsg); isQ && q.Height == want {
				return env
			}
		case <-tick.C:
		case <-deadline:
			t.Fatalf("message %d never delivered", want)
		}
	}
}

// goroutineLeaks lists stacks of still-running network goroutines
// (accept/read/write loops, conditioned pumps, delay schedulers) after
// polling for up to two seconds — the goleak-style accounting the
// Stop/Close tests rely on.
func goroutineLeaks(t *testing.T) []string {
	t.Helper()
	markers := []string{
		"network.(*TCP).acceptLoop",
		"network.(*TCP).readLoop",
		"network.(*TCP).writeLoop",
		"network.(*Conditioned).pump",
		"network.(*scheduler).run",
	}
	deadline := time.Now().Add(2 * time.Second)
	var leaked []string
	for {
		leaked = leaked[:0]
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
			for _, m := range markers {
				if strings.Contains(stack, m) {
					leaked = append(leaked, stack)
					break
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertNoLeaks(t *testing.T) {
	t.Helper()
	if leaks := goroutineLeaks(t); len(leaks) > 0 {
		t.Fatalf("%d network goroutines leaked; first:\n%s", len(leaks), leaks[0])
	}
}

// TestTCPReconnectAfterPeerRestart: a peer that dies and comes back on
// the same address must start receiving again without any help — the
// sender's writer re-dials lazily.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, b := newTCPPair(t)
	defer func() { _ = a.Close() }()

	recvQuery(t, b, 1, func() { a.Send(2, types.QueryMsg{Height: 1}) })

	// Kill B and bring it back on the same address.
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewTCP(2, map[types.NodeID]string{1: "", 2: addr})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer func() { _ = b2.Close() }()
	b2.SetPeerAddr(1, a.Addr())

	recvQuery(t, b2, 2, func() { a.Send(2, types.QueryMsg{Height: 2}) })
	if s := a.Stats(); s.Redials == 0 {
		t.Fatalf("restart must show up as a redial, stats %+v", s)
	}
}

// TestTCPResetPeerConnsReconnects: ResetPeerConns (the crash
// teardown) must sever every live connection both ways, and traffic
// must resume over fresh connections afterwards.
func TestTCPResetPeerConnsReconnects(t *testing.T) {
	a, b := newTCPPair(t)
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	recvQuery(t, b, 1, func() { a.Send(2, types.QueryMsg{Height: 1}) })
	recvQuery(t, a, 2, func() { b.Send(1, types.QueryMsg{Height: 2}) })

	b.ResetPeerConns()

	recvQuery(t, b, 3, func() { a.Send(2, types.QueryMsg{Height: 3}) })
	recvQuery(t, a, 4, func() { b.Send(1, types.QueryMsg{Height: 4}) })
	redials := a.Stats().Redials + b.Stats().Redials
	if redials == 0 {
		t.Fatal("reset must force at least one redial")
	}
}

// TestTCPConcurrentCloseSendRace: hammering Send and Broadcast from
// many goroutines while Close runs must neither panic, nor race, nor
// deadlock — the -race CI job is the real assertion here.
func TestTCPConcurrentCloseSendRace(t *testing.T) {
	a, b := newTCPPair(t)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					a.Send(2, types.QueryMsg{Height: uint64(i)})
				} else {
					a.Broadcast(types.QueryMsg{Height: uint64(i)})
				}
			}
		}(g)
	}
	closed := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(time.Millisecond)
		closed <- a.Close()
	}()
	close(start)
	wg.Wait()
	if err := <-closed; err != nil {
		t.Logf("close error (listener): %v", err)
	}
	// A second Close must be a no-op.
	_ = a.Close()
	_ = b.Close()
	assertNoLeaks(t)
}

// TestTCPOversizedMessageDropped: a message over the frame cap must
// die at the sender without wedging the link — and because the codec
// detects the oversize before staging a byte, the connection itself
// survives: later messages arrive with no redial.
func TestTCPOversizedMessageDropped(t *testing.T) {
	a, b := newTCPPair(t)
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	recvQuery(t, b, 1, func() { a.Send(2, types.QueryMsg{Height: 1}) })
	dropsBefore := a.Stats().Dropped

	huge := types.RequestMsg{Tx: types.Transaction{
		ID:      types.TxID{Client: 9, Seq: 9},
		Command: make([]byte, 17<<20), // over codec.MaxFrame
	}}
	a.Send(2, huge)

	recvQuery(t, b, 2, func() { a.Send(2, types.QueryMsg{Height: 2}) })
	drainDeadline := time.After(100 * time.Millisecond)
	for {
		select {
		case got := <-b.Inbox():
			if _, isReq := got.Msg.(types.RequestMsg); isReq {
				t.Fatal("oversized message must never be delivered")
			}
		case <-drainDeadline:
			stats := a.Stats()
			if stats.Dropped <= dropsBefore {
				t.Fatalf("oversized message not counted dropped: %+v", stats)
			}
			// One message lost, zero connections: the frame cap no
			// longer poisons the stream, so no re-dial happened.
			if stats.Redials != 0 {
				t.Fatalf("oversized message cost the connection: %d redials", stats.Redials)
			}
			if stats.Dials != 1 {
				t.Fatalf("expected the original dial only, got %d", stats.Dials)
			}
			return
		}
	}
}

// TestTCPMalformedFrameDropsMessageNotConn: hostile bytes on an
// inbound connection cost one frame, counted in TransportStats — a
// healthy frame on the SAME connection still delivers. This is the
// receive-side half of the drop-a-message-not-the-connection
// guarantee (the gob design had to discard the conn).
func TestTCPMalformedFrameDropsMessageNotConn(t *testing.T) {
	b, err := NewTCP(2, map[types.NodeID]string{2: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	// Frame 1: well-framed garbage (unknown tag). Frame 2: truncated
	// vote body. Frame 3: a healthy query — same connection.
	var raw bytes.Buffer
	junk := []byte{types.WireVersion, 0xEE, 1, 0, 0, 0, 42}
	raw.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(junk))))
	raw.Write(junk)
	bad := []byte{types.WireVersion, byte(types.TagVote), 1, 0, 0, 0, 1, 9}
	raw.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(bad))))
	raw.Write(bad)
	enc := codec.NewEncoder(&raw)
	if _, err := enc.Encode(codec.Envelope{From: 1, Msg: types.QueryMsg{Height: 77}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}

	select {
	case env := <-b.Inbox():
		q, ok := env.Msg.(types.QueryMsg)
		if !ok || q.Height != 77 || env.From != 1 {
			t.Fatalf("healthy frame mangled: %+v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy frame after malformed frames never delivered")
	}
	if drops := b.Stats().Dropped; drops != 2 {
		t.Fatalf("want 2 dropped frames counted, got %d", drops)
	}
}

// TestTCPWriteCoalescing: a burst queued behind a blocked writer is
// drained through one encoder flush — every message arrives, exact
// framed bytes are counted, and the per-message accounting matches
// the codec's sizes.
func TestTCPWriteCoalescing(t *testing.T) {
	a, b := newTCPPair(t)
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	// Establish the connection first so the burst rides one stream.
	recvQuery(t, b, 1, func() { a.Send(2, types.QueryMsg{Height: 1}) })
	base := a.Stats()

	const burst = 200
	var wantBytes uint64
	for i := 0; i < burst; i++ {
		msg := types.VoteMsg{Vote: &types.Vote{View: types.View(i), BlockID: types.Hash{1}, Voter: 1, Sig: []byte{1, 2, 3, 4}}}
		n, ok := codec.EncodedSize(msg)
		if !ok {
			t.Fatal("vote not sized")
		}
		wantBytes += uint64(n)
		a.Send(2, msg)
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < burst {
		select {
		case env, ok := <-b.Inbox():
			if !ok {
				t.Fatal("inbox closed mid-burst")
			}
			if _, isVote := env.Msg.(types.VoteMsg); isVote {
				got++
			}
		case <-deadline:
			t.Fatalf("only %d/%d burst messages arrived", got, burst)
		}
	}
	stats := a.Stats()
	if stats.Msgs-base.Msgs != burst {
		t.Fatalf("sent-message count off: %d", stats.Msgs-base.Msgs)
	}
	if stats.Bytes-base.Bytes != wantBytes {
		t.Fatalf("framed bytes %d, codec sizes sum to %d", stats.Bytes-base.Bytes, wantBytes)
	}
	if stats.Dials != 1 || stats.Redials != 0 {
		t.Fatalf("burst should ride one connection: %+v", stats)
	}
}

// TestTCPCloseReleasesGoroutines: after Close, no accept/read/write
// goroutine may linger and no dial retry may keep spinning, even with
// a peer that was never reachable.
func TestTCPCloseReleasesGoroutines(t *testing.T) {
	a, b := newTCPPair(t)
	// Peer 3 is a black hole: known address, nothing listening — the
	// writer's dial-retry path stays warm until Close.
	a.SetPeerAddr(3, "127.0.0.1:1")
	t.Cleanup(func() { assertNoLeaks(t) })

	for i := 0; i < 50; i++ {
		a.Send(2, types.QueryMsg{Height: uint64(i)})
		a.Send(3, types.QueryMsg{Height: uint64(i)})
		b.Send(1, types.QueryMsg{Height: uint64(i)})
	}
	if err := a.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	// Inboxes must be closed so consumers see end-of-stream.
	if _, ok := <-a.Inbox(); ok {
		// Drain: buffered messages may precede the close.
		for range a.Inbox() {
		}
	}
}

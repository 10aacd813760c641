package network

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func join(t *testing.T, s *Switch, id types.NodeID) *Endpoint {
	t.Helper()
	ep, err := s.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// newSwitch builds a switch that is closed when the test ends, so no
// scheduler goroutine outlives it (the leak accounting counts them).
func newSwitch(t *testing.T, cond *Conditions) *Switch {
	t.Helper()
	s := NewSwitch(cond)
	t.Cleanup(s.Close)
	return s
}

func recvWithin(t *testing.T, ep *Endpoint, d time.Duration) Envelope {
	t.Helper()
	select {
	case env := <-ep.Inbox():
		return env
	case <-time.After(d):
		t.Fatalf("node %s: no message within %v", ep.Self(), d)
		return Envelope{}
	}
}

func TestSwitchSendReceive(t *testing.T) {
	s := NewSwitch(nil)
	a, b := join(t, s, 1), join(t, s, 2)
	a.Send(2, "hello")
	env := recvWithin(t, b, time.Second)
	if env.From != 1 || env.Msg != "hello" {
		t.Fatalf("got %+v", env)
	}
	if a.Self() != 1 {
		t.Fatal("self wrong")
	}
}

func TestSwitchBroadcastExcludesSelfAndClients(t *testing.T) {
	s := NewSwitch(nil)
	a, b, c := join(t, s, 1), join(t, s, 2), join(t, s, 3)
	client, err := s.JoinClient(100)
	if err != nil {
		t.Fatal(err)
	}
	a.Broadcast("x")
	recvWithin(t, b, time.Second)
	recvWithin(t, c, time.Second)
	select {
	case env := <-a.Inbox():
		t.Fatalf("sender received own broadcast: %+v", env)
	case env := <-client.Inbox():
		t.Fatalf("client received broadcast: %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSwitchClientDirectedMessages(t *testing.T) {
	s := NewSwitch(nil)
	a := join(t, s, 1)
	client, err := s.JoinClient(100)
	if err != nil {
		t.Fatal(err)
	}
	client.Send(1, types.RequestMsg{Tx: types.Transaction{ID: types.TxID{Client: 100, Seq: 1}}})
	env := recvWithin(t, a, time.Second)
	if env.From != 100 {
		t.Fatalf("from = %v", env.From)
	}
	a.Send(100, types.ReplyMsg{TxID: types.TxID{Client: 100, Seq: 1}})
	env = recvWithin(t, client, time.Second)
	if _, ok := env.Msg.(types.ReplyMsg); !ok {
		t.Fatalf("client got %T", env.Msg)
	}
}

func TestSwitchDuplicateJoin(t *testing.T) {
	s := NewSwitch(nil)
	join(t, s, 1)
	if _, err := s.Join(1); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestSwitchDelay(t *testing.T) {
	cond := NewConditions(1)
	cond.SetBaseDelay(30*time.Millisecond, 0)
	s := newSwitch(t, cond)
	a, b := join(t, s, 1), join(t, s, 2)
	start := time.Now()
	a.Send(2, "delayed")
	recvWithin(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("message arrived after %v, want ≥ ~30ms", elapsed)
	}
}

func TestSwitchBandwidthCharge(t *testing.T) {
	cond := NewConditions(1)
	cond.SetBandwidth(1 << 20) // 1 MiB/s
	s := newSwitch(t, cond)
	a, b := join(t, s, 1), join(t, s, 2)
	// 512 KiB payload → 2·size/bw = 1s... too slow for a test; use
	// a 26 KiB block ≈ 50ms charge.
	payload := make([]types.Transaction, 100)
	for i := range payload {
		payload[i] = types.Transaction{ID: types.TxID{Client: 1, Seq: uint64(i)}, Command: make([]byte, 256)}
	}
	block := &types.Block{View: 1, QC: types.GenesisQC(), Payload: payload}
	start := time.Now()
	a.Send(2, types.ProposalMsg{Block: block})
	recvWithin(t, b, 2*time.Second)
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("large message arrived after %v, want NIC serialization delay", elapsed)
	}
}

func TestSwitchPartitionAndHeal(t *testing.T) {
	cond := NewConditions(1)
	s := NewSwitch(cond)
	a, b := join(t, s, 1), join(t, s, 2)
	cond.Partition(map[types.NodeID]int{1: 0, 2: 1})
	a.Send(2, "lost")
	select {
	case <-b.Inbox():
		t.Fatal("message crossed partition")
	case <-time.After(50 * time.Millisecond):
	}
	cond.Heal()
	a.Send(2, "found")
	env := recvWithin(t, b, time.Second)
	if env.Msg != "found" {
		t.Fatalf("got %+v", env)
	}
}

func TestSwitchCrashAndRestart(t *testing.T) {
	cond := NewConditions(1)
	s := NewSwitch(cond)
	a, b := join(t, s, 1), join(t, s, 2)
	cond.Crash(2)
	a.Send(2, "to the dead")
	select {
	case <-b.Inbox():
		t.Fatal("crashed node received message")
	case <-time.After(50 * time.Millisecond):
	}
	// Crashed nodes cannot send either.
	cond.Crash(1)
	cond.Restart(2)
	a.Send(2, "from the dead")
	select {
	case <-b.Inbox():
		t.Fatal("crashed sender delivered message")
	case <-time.After(50 * time.Millisecond):
	}
	cond.Restart(1)
	a.Send(2, "alive")
	recvWithin(t, b, time.Second)
}

func TestSwitchCrashDropsInFlight(t *testing.T) {
	cond := NewConditions(1)
	cond.SetBaseDelay(50*time.Millisecond, 0)
	s := newSwitch(t, cond)
	a, b := join(t, s, 1), join(t, s, 2)
	a.Send(2, "in flight")
	cond.Crash(2) // crash before the delayed delivery fires
	select {
	case <-b.Inbox():
		t.Fatal("in-flight message delivered to crashed node")
	case <-time.After(150 * time.Millisecond):
	}
}

func TestSwitchDropRate(t *testing.T) {
	cond := NewConditions(1)
	cond.SetDropRate(1.0)
	s := NewSwitch(cond)
	a, b := join(t, s, 1), join(t, s, 2)
	for i := 0; i < 10; i++ {
		a.Send(2, i)
	}
	select {
	case <-b.Inbox():
		t.Fatal("message survived 100% drop rate")
	case <-time.After(50 * time.Millisecond):
	}
	_, _, dropped := s.Stats()
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
}

func TestSwitchFluctuationWindow(t *testing.T) {
	cond := NewConditions(1)
	s := newSwitch(t, cond)
	a, b := join(t, s, 1), join(t, s, 2)
	cond.Fluctuate(time.Now(), 80*time.Millisecond, 40*time.Millisecond, 41*time.Millisecond)
	start := time.Now()
	a.Send(2, "during")
	recvWithin(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("fluctuation not applied: %v", elapsed)
	}
	time.Sleep(90 * time.Millisecond) // window over
	start = time.Now()
	a.Send(2, "after")
	recvWithin(t, b, time.Second)
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("fluctuation persisted after window: %v", elapsed)
	}
}

func TestSwitchSlowCommand(t *testing.T) {
	cond := NewConditions(1)
	s := newSwitch(t, cond)
	a, b := join(t, s, 1), join(t, s, 2)
	cond.SetNodeDelay(1, 30*time.Millisecond, 0)
	start := time.Now()
	a.Send(2, "slowed")
	recvWithin(t, b, time.Second)
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("per-node slow delay not applied")
	}
	cond.SetNodeDelay(1, 0, 0) // clear
	start = time.Now()
	a.Send(2, "fast")
	recvWithin(t, b, time.Second)
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("slow delay not cleared")
	}
}

func TestSwitchStatsCount(t *testing.T) {
	s := NewSwitch(nil)
	a, b := join(t, s, 1), join(t, s, 2)
	_ = b
	for i := 0; i < 5; i++ {
		a.Send(2, types.VoteMsg{Vote: &types.Vote{View: 1, Voter: 1}})
	}
	deadline := time.Now().Add(time.Second)
	for {
		msgs, bytes, _ := s.Stats()
		if msgs == 5 && bytes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats: msgs=%d bytes=%d", msgs, bytes)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEndpointClose(t *testing.T) {
	s := NewSwitch(nil)
	a, b := join(t, s, 1), join(t, s, 2)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send(2, "gone")
	a.Broadcast("gone")
	// Closing twice is fine; sends from closed endpoints are no-ops.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b.Send(1, "zombie")
	select {
	case <-a.Inbox():
		t.Fatal("closed endpoint delivered a message")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestNormalDelayNonNegative(t *testing.T) {
	cond := NewConditions(1)
	for i := 0; i < 1000; i++ {
		if d := normalDelay(cond.rng, time.Millisecond, 10*time.Millisecond); d < 0 {
			t.Fatal("negative delay sampled")
		}
	}
}

func TestTCPSendReceive(t *testing.T) {
	addrs := map[types.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = t1.Close() }()
	// Node 2 must know node 1's real port and vice versa; rebuild the
	// address map with bound ports.
	addrs[1] = t1.Addr()
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = t2.Close() }()
	addrs[2] = t2.Addr()
	t1.SetPeerAddr(2, t2.Addr())

	t1.Send(2, types.VoteMsg{Vote: &types.Vote{View: 3, Voter: 1, BlockID: types.Hash{1}}})
	select {
	case env := <-t2.Inbox():
		vm, ok := env.Msg.(types.VoteMsg)
		if !ok || vm.Vote.View != 3 || env.From != 1 {
			t.Fatalf("got %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no TCP delivery")
	}

	// Reply direction exercises t2's lazy dial.
	t2.Send(1, types.VoteMsg{Vote: &types.Vote{View: 4, Voter: 2}})
	select {
	case env := <-t1.Inbox():
		if env.From != 2 {
			t.Fatalf("from = %v", env.From)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reverse TCP delivery")
	}
}

func TestTCPBroadcastAndClose(t *testing.T) {
	addrs := map[types.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0", 3: "127.0.0.1:0"}
	transports := make(map[types.NodeID]*TCP)
	for id := types.NodeID(1); id <= 3; id++ {
		tr, err := NewTCP(id, addrs)
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = tr.Addr()
		transports[id] = tr
	}
	// Propagate the real ports to every transport's address book.
	for _, tr := range transports {
		for id, a := range addrs {
			tr.SetPeerAddr(id, a)
		}
	}
	transports[1].Broadcast(types.VoteMsg{Vote: &types.Vote{View: 1, Voter: 1}})
	for _, id := range []types.NodeID{2, 3} {
		select {
		case env := <-transports[id].Inbox():
			if env.From != 1 {
				t.Fatalf("from = %v", env.From)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("node %s missed broadcast", id)
		}
	}
	for _, tr := range transports {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	// Send after close is a silent no-op.
	transports[1].Send(2, "late")
}

func TestTCPMissingSelfAddress(t *testing.T) {
	if _, err := NewTCP(9, map[types.NodeID]string{1: "127.0.0.1:0"}); err == nil {
		t.Fatal("expected error for missing self address")
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	tr, err := NewTCP(1, map[types.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	tr.Send(42, "nobody home") // must not panic or block
}

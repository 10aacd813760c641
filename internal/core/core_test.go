package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/protocol/hotstuff"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// testCfg is a minimal 4-node configuration.
func testCfg() config.Config {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 10
	cfg.MemSize = 1 << 12
	cfg.Timeout = 150 * time.Millisecond
	return cfg
}

// buildNodes assembles n engine nodes over the given transports.
func buildNodes(t *testing.T, cfg config.Config, transports map[types.NodeID]network.Transport) []*Node {
	t.Helper()
	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 0, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		n := NewNode(id, cfg, hotstuff.New, transports[id], scheme, Options{
			OnViolation: func(err error) { t.Errorf("violation: %v", err) },
		})
		nodes = append(nodes, n)
	}
	return nodes
}

// TestConsensusOverTCP runs real chained HotStuff over loopback TCP —
// the multi-process deployment path, in one test binary.
func TestConsensusOverTCP(t *testing.T) {
	cfg := testCfg()
	// Bind ephemeral ports first, then share the address book.
	addrs := map[types.NodeID]string{}
	for i := 1; i <= cfg.N; i++ {
		addrs[types.NodeID(i)] = "127.0.0.1:0"
	}
	tcp := make(map[types.NodeID]*network.TCP, cfg.N)
	transports := make(map[types.NodeID]network.Transport, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		tr, err := network.NewTCP(id, addrs)
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = tr.Addr()
		tcp[id] = tr
		transports[id] = tr
	}
	cfg.Addrs = addrs
	nodes := buildNodes(t, cfg, transports)
	// Propagate the bound ephemeral ports into every address book.
	for _, tr := range tcp {
		for pid, addr := range addrs {
			tr.SetPeerAddr(pid, addr)
		}
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range tcp {
			_ = tr.Close()
		}
	}()

	// Submit transactions to node 1 and wait for commits everywhere.
	for i := 0; i < 50; i++ {
		nodes[0].Submit(types.Transaction{
			ID: types.TxID{Client: 500, Seq: uint64(i + 1)},
		})
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		done := true
		for _, n := range nodes {
			if n.Status().CommittedHeight < 5 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("node %s: %+v", n.ID(), n.Status())
			}
			t.Fatal("TCP cluster made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Consistency across TCP replicas.
	h := nodes[0].Status().CommittedHeight
	for _, n := range nodes[1:] {
		if nh := n.Status().CommittedHeight; nh < h {
			h = nh
		}
	}
	want, _ := nodes[0].HashAt(h)
	for _, n := range nodes[1:] {
		got, ok := n.HashAt(h)
		if ok && got != want {
			t.Fatalf("TCP replicas diverged at height %d", h)
		}
	}
}

// TestStatusAndHashAt covers the cross-thread snapshot surface.
func TestStatusAndHashAt(t *testing.T) {
	cfg := testCfg()
	sw := network.NewSwitch(nil)
	transports := make(map[types.NodeID]network.Transport, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		ep, err := sw.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		transports[types.NodeID(i)] = ep
	}
	nodes := buildNodes(t, cfg, transports)
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}})
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].Status().CommittedHeight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no commit")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := nodes[0].Status()
	if s.CommittedHash.IsZero() || s.CommittedView == 0 || s.CurView == 0 {
		t.Fatalf("incomplete status: %+v", s)
	}
	if _, ok := nodes[0].HashAt(1); !ok {
		t.Fatal("HashAt(1) missing after commit")
	}
	if _, ok := nodes[0].HashAt(0); ok {
		t.Fatal("HashAt(0) must be absent (genesis is implicit)")
	}
	if _, ok := nodes[0].HashAt(1 << 40); ok {
		t.Fatal("HashAt far future must be absent")
	}
	if nodes[0].ID() != 1 {
		t.Fatal("ID accessor wrong")
	}
	if nodes[0].Violations() != 0 {
		t.Fatal("spurious violations")
	}
}

// TestStopIsIdempotentAndSubmitAfterStop: lifecycle edges.
func TestStopIsIdempotentAndSubmitAfterStop(t *testing.T) {
	cfg := testCfg()
	sw := network.NewSwitch(nil)
	ep, err := sw.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := crypto.NewScheme("hmac", cfg.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(1, cfg, hotstuff.New, ep, scheme, Options{})
	n.Start()
	n.Stop()
	n.Stop()                                                       // second stop: no deadlock
	n.Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}}) // no panic
}

// selfSendRecorder wraps a transport and counts the messages its node
// addresses to itself.
type selfSendRecorder struct {
	network.Transport
	selfSends atomic.Int64
}

func (r *selfSendRecorder) Send(to types.NodeID, msg any) {
	if to == r.Self() {
		r.selfSends.Add(1)
	}
	r.Transport.Send(to, msg)
}

// TestSelfSubmittedTxNoSelfReply: transactions a replica submits itself
// (the HTTP API's path) commit, and no replica ever sends itself a
// message — in particular no ReplyMsg for its own submissions, which
// commit listeners answer instead.
func TestSelfSubmittedTxNoSelfReply(t *testing.T) {
	cfg := testCfg()
	sw := network.NewSwitch(nil)
	defer sw.Close()
	recs := make(map[types.NodeID]*selfSendRecorder, cfg.N)
	transports := make(map[types.NodeID]network.Transport, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		ep, err := sw.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		recs[id] = &selfSendRecorder{Transport: ep}
		transports[id] = recs[id]
	}
	nodes := buildNodes(t, cfg, transports)
	var mu sync.Mutex
	committed := make(map[types.TxID]bool)
	nodes[0].AddCommitListener(func(_ types.View, _ types.Hash, txs []types.Transaction) {
		mu.Lock()
		defer mu.Unlock()
		for _, tx := range txs {
			committed[tx.ID] = true
		}
	})
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	const count = 30
	for i := 0; i < count; i++ {
		nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 500, Seq: uint64(i + 1)}})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(committed)
		mu.Unlock()
		if n == count {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d self-submitted transactions committed", n, count)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for id, r := range recs {
		if got := r.selfSends.Load(); got != 0 {
			t.Errorf("replica %s sent %d messages to itself", id, got)
		}
	}
}

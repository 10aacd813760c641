package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// applyCluster builds (but does not start) a 4-replica switch cluster
// on cfg whose replicas run exec(id) as their Execute hook, and returns
// the switch too for joining raw endpoints.
func applyCluster(t *testing.T, cfg config.Config, exec func(types.NodeID) func([]types.Transaction)) ([]*Node, *network.Switch) {
	t.Helper()
	sw := network.NewSwitch(nil)
	t.Cleanup(sw.Close)
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
		n.opts.Execute = exec(n.id)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	return nodes, sw
}

// TestStagedCommitAppliesInOrder: the Execute hook observes every
// committed payload exactly once, in commit order, and Stop drains
// the backlog. The count is checked after a quiet period, so a
// transaction committed twice fails on count as well as on order.
func TestStagedCommitAppliesInOrder(t *testing.T) {
	var applied atomic.Uint64
	var lastSeq uint64
	nodes, _ := applyCluster(t, testCfg(), func(id types.NodeID) func([]types.Transaction) {
		if id != 1 {
			return nil
		}
		return func(txs []types.Transaction) {
			for i := range txs {
				// Single client submitting sequential IDs: commit
				// order must preserve submission order.
				if txs[i].ID.Seq <= lastSeq {
					t.Errorf("out-of-order apply: seq %d after %d", txs[i].ID.Seq, lastSeq)
				}
				lastSeq = txs[i].ID.Seq
				applied.Add(1)
			}
		}
	})
	for _, n := range nodes {
		n.Start()
	}
	const total = 60
	for i := 1; i <= total; i++ {
		nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 7, Seq: uint64(i)}})
	}
	committed := func() uint64 { return nodes[0].Tracker().Snapshot().TxCommitted }
	deadline := time.Now().Add(10 * time.Second)
	for committed() < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d transactions committed", committed(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Quiet period: views keep turning over empty blocks, which is
	// where a re-proposed batch would commit a second time.
	time.Sleep(300 * time.Millisecond)
	if got := committed(); got != total {
		t.Fatalf("committed %d transactions, want exactly %d", got, total)
	}
	for _, n := range nodes {
		n.Stop()
	}
	if got := applied.Load(); got != total {
		t.Fatalf("applied %d transactions after Stop, want exactly %d", got, total)
	}
	if nodes[0].Pipeline().Snapshot().BlocksApplied == 0 {
		t.Fatal("apply stage never ran")
	}
}

// TestTinyApplyQueueBackpressure: with a two-block apply queue and slow
// execution, the apply stage exerts backpressure on the event loop
// instead of growing a backlog; consensus keeps committing, and every
// committed transaction is applied by the time Stop returns.
func TestTinyApplyQueueBackpressure(t *testing.T) {
	cfg := testCfg()
	applied := make([]atomic.Uint64, cfg.N+1)
	nodes, _ := applyCluster(t, cfg, func(id types.NodeID) func([]types.Transaction) {
		return func(txs []types.Transaction) {
			time.Sleep(time.Millisecond)
			applied[id].Add(uint64(len(txs)))
		}
	})
	for _, n := range nodes {
		n.applyQueue = 2
		n.Start()
	}
	for i := 1; i <= 400; i++ {
		nodes[i%cfg.N].Submit(types.Transaction{ID: types.TxID{Client: 8, Seq: uint64(i)}})
	}
	// Thirty blocks take at least 30 ms to execute, far longer than
	// consensus takes to commit them: the two-block queue fills.
	waitProgress(t, nodes, 30)
	for _, n := range nodes {
		n.Stop()
	}
	for _, n := range nodes {
		if got, want := applied[n.ID()].Load(), n.Tracker().Snapshot().TxCommitted; got != want {
			t.Fatalf("replica %s: applied %d, committed %d", n.ID(), got, want)
		}
	}
}

// TestFollowerKeepsSpans: every replica, not only a block's proposer,
// keeps lifecycle spans, so a follower's verify stage histogram fills
// as blocks commit and execute. A static leader makes replica 4 a pure
// follower: none of its samples can come from a block it proposed.
func TestFollowerKeepsSpans(t *testing.T) {
	cfg := testCfg()
	cfg.Master = 1
	nodes, _ := applyCluster(t, cfg, func(types.NodeID) func([]types.Transaction) { return nil })
	for _, n := range nodes {
		n.Start()
	}
	for i := 1; i <= 20; i++ {
		nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 5, Seq: uint64(i)}})
	}
	waitProgress(t, nodes, 8)
	follower := nodes[3]
	deadline := time.Now().Add(5 * time.Second)
	for follower.Tracker().Snapshot().Stages["verify"].Count == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower recorded no verify stage samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipelinedEngineSurvivesMalformedMessages floods a cluster whose
// replicas execute through the ordered apply stage with the hostile
// traffic of TestEngineSurvivesMalformedMessages. Every forgery must be
// rejected before it reaches the apply stage: consensus keeps
// committing without safety violations, each replica executes exactly
// the transactions it committed, and the replicas execute the same
// sequence.
func TestPipelinedEngineSurvivesMalformedMessages(t *testing.T) {
	var mu sync.Mutex
	applied := map[types.NodeID][]types.TxID{}
	nodes, sw := applyCluster(t, testCfg(), func(id types.NodeID) func([]types.Transaction) {
		return func(txs []types.Transaction) {
			mu.Lock()
			defer mu.Unlock()
			for i := range txs {
				applied[id] = append(applied[id], txs[i].ID)
			}
		}
	})
	for _, n := range nodes {
		n.Start()
	}
	raw, err := sw.JoinClient(666)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}})
	waitProgress(t, nodes, 0)
	floodHostile(raw)
	before := nodes[len(nodes)-1].Status().CommittedHeight
	last := types.TxID{Client: 1, Seq: 2}
	nodes[0].Submit(types.Transaction{ID: last})
	waitProgress(t, nodes, before)

	// Wait for the last honest transaction to execute everywhere.
	executed := func(id types.NodeID) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, tx := range applied[id] {
			if tx == last {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes {
		for !executed(n.ID()) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never executed %v", n.ID(), last)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, n := range nodes {
		n.Stop()
	}
	for _, n := range nodes {
		if n.Violations() != 0 {
			t.Fatalf("node %s reported safety violations under hostile traffic", n.ID())
		}
		if got, want := uint64(len(applied[n.ID()])), n.Tracker().Snapshot().TxCommitted; got != want {
			t.Fatalf("replica %s: applied %d, committed %d", n.ID(), got, want)
		}
		if n.Pipeline().Snapshot().BlocksApplied == 0 {
			t.Fatalf("replica %s: apply stage never ran", n.ID())
		}
	}
	// Replicas stop at different heights; each sequence is a prefix
	// of the longest.
	longest := applied[nodes[0].ID()]
	for _, n := range nodes[1:] {
		if seq := applied[n.ID()]; len(seq) > len(longest) {
			longest = seq
		}
	}
	for _, n := range nodes {
		for i, tx := range applied[n.ID()] {
			if tx != longest[i] {
				t.Fatalf("replica %s executed %v at position %d, another replica %v", n.ID(), tx, i, longest[i])
			}
		}
	}
}

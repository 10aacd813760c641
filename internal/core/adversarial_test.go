package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// startSwitchCluster runs cfg.N engine nodes on a fresh switch and
// returns the nodes plus a raw endpoint joined as the given intruder
// ID for crafting hostile traffic.
func startSwitchCluster(t *testing.T, intruder types.NodeID) ([]*Node, *network.Endpoint) {
	t.Helper()
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
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	raw, err := sw.JoinClient(intruder)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, raw
}

// waitProgress asserts the cluster commits past `beyond` soon.
func waitProgress(t *testing.T, nodes []*Node, beyond uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if nodes[len(nodes)-1].Status().CommittedHeight > beyond {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress past height %d", beyond)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// floodHostile sends a seeded mix of hostile garbage — nil payloads,
// forged signatures, stale and future views, junk types — from raw to
// random replicas of a 4-node cluster, 50 rounds of each message.
func floodHostile(raw *network.Endpoint) {
	hostile := []any{
		types.ProposalMsg{},                             // nil block
		types.ProposalMsg{Block: &types.Block{}},        // no QC
		types.VoteMsg{},                                 // nil vote
		types.TimeoutMsg{},                              // nil timeout
		types.TCMsg{},                                   // nil TC
		types.FetchMsg{BlockID: types.Hash{0xde, 0xad}}, // unknown block
		types.QueryMsg{Height: 1 << 60},                 // absurd height
		"a string, not a protocol message",              // junk type
		42,                                              // more junk
		types.ReplyMsg{TxID: types.TxID{Client: 9, Seq: 9}}, // replies to a replica
		types.RequestMsg{}, // zero-value transaction
		types.SlowMsg{DelayMeanNanos: -5, DelayStdNanos: -5}, // nonsense delays
		types.PayloadBatchMsg{},                              // a message the engine never acts on
		types.PayloadBatchMsg{Txs: make([]types.Transaction, 3)},
	}
	// Forged consensus messages: bad signatures, wrong proposers,
	// time-traveling views.
	forged := []any{
		types.ProposalMsg{Block: &types.Block{
			View: 5, Proposer: 1, QC: types.GenesisQC(), Sig: []byte("forged"),
		}},
		types.ProposalMsg{Block: &types.Block{
			View: 3, Proposer: 4, // wrong leader for view 3 (round robin)
			QC: types.GenesisQC(), Sig: []byte("x"),
		}},
		types.ProposalMsg{ // digest form: stripped payload, IDs listed
			Block: &types.Block{
				View: 6, Proposer: 2, QC: types.GenesisQC(), Sig: []byte("x"),
				Digest: types.Hash{0xaa},
			},
			PayloadIDs: []types.TxID{{Client: 9, Seq: 9}},
		},
		types.VoteMsg{Vote: &types.Vote{View: 2, Voter: 2, Sig: []byte("forged")}},
		types.VoteMsg{Vote: &types.Vote{View: 1 << 40, Voter: 3, Sig: []byte("future")}},
		types.TimeoutMsg{Timeout: &types.Timeout{View: 1 << 40, Voter: 3, Sig: []byte("future")}},
		types.TCMsg{TC: &types.TC{View: 1 << 40, Signers: []types.NodeID{1, 2, 3},
			Sigs: [][]byte{{1}, {2}, {3}}}},
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		for _, msg := range hostile {
			raw.Send(types.NodeID(rng.Intn(4)+1), msg)
		}
		for _, msg := range forged {
			raw.Send(types.NodeID(rng.Intn(4)+1), msg)
		}
	}
}

// TestEngineSurvivesMalformedMessages floods a live cluster with
// hostile garbage — nil payloads, forged signatures, stale and future
// views, junk types — and requires continued progress, zero panics,
// and zero safety violations.
func TestEngineSurvivesMalformedMessages(t *testing.T) {
	nodes, raw := startSwitchCluster(t, 666)
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}})
	waitProgress(t, nodes, 0)

	floodHostile(raw)
	before := nodes[len(nodes)-1].Status().CommittedHeight
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 2}})
	waitProgress(t, nodes, before)
	for _, n := range nodes {
		if n.Violations() != 0 {
			t.Fatalf("node %s reported safety violations under hostile traffic", n.ID())
		}
	}
	// Honest replicas still agree.
	min := nodes[0].Status().CommittedHeight
	for _, n := range nodes[1:] {
		if h := n.Status().CommittedHeight; h < min {
			min = h
		}
	}
	if min > 0 {
		want, _ := nodes[0].HashAt(min)
		for _, n := range nodes[1:] {
			if got, ok := n.HashAt(min); ok && got != want {
				t.Fatalf("divergence at height %d under hostile traffic", min)
			}
		}
	}
}

// TestForgedQCNeverCertifies: a fabricated quorum certificate with
// invalid signatures must not advance any replica's chain state.
func TestForgedQCNeverCertifies(t *testing.T) {
	nodes, raw := startSwitchCluster(t, 667)
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}})
	waitProgress(t, nodes, 0)
	// Build a block with a forged QC certifying a fantasy parent at a
	// far-future view; replicas must reject it during verification.
	forgedQC := &types.QC{
		View:    1 << 30,
		BlockID: types.Hash{0xbb},
		Signers: []types.NodeID{1, 2, 3},
		Sigs:    [][]byte{[]byte("no"), []byte("not"), []byte("nope")},
	}
	b := &types.Block{View: 1<<30 + 1, Proposer: 2, Parent: types.Hash{0xbb}, QC: forgedQC}
	for i := 1; i <= 4; i++ {
		raw.Send(types.NodeID(i), types.ProposalMsg{Block: b})
	}
	time.Sleep(100 * time.Millisecond)
	for _, n := range nodes {
		if n.Status().CurView >= 1<<30 {
			t.Fatalf("node %s jumped to the forged view", n.ID())
		}
	}
}

// TestFetchServesKnownBlocks: the catch-up path answers with the
// requested ancestor.
func TestFetchServesKnownBlocks(t *testing.T) {
	nodes, raw := startSwitchCluster(t, 668)
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}})
	waitProgress(t, nodes, 1)
	h, ok := nodes[3].HashAt(nodes[3].Status().CommittedHeight)
	if !ok {
		t.Fatal("no committed hash")
	}
	raw.Send(4, types.FetchMsg{BlockID: h})
	select {
	case env := <-raw.Inbox():
		pm, isProposal := env.Msg.(types.ProposalMsg)
		if !isProposal || pm.Block == nil || pm.Block.ID() != h {
			t.Fatalf("fetch answered with %T", env.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch unanswered")
	}
}

// TestQueryAnswersConsistently: QueryMsg returns the committed state.
func TestQueryAnswersConsistently(t *testing.T) {
	nodes, raw := startSwitchCluster(t, 669)
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}})
	waitProgress(t, nodes, 1)
	raw.Send(4, types.QueryMsg{})
	select {
	case env := <-raw.Inbox():
		qr, isReply := env.Msg.(types.QueryReplyMsg)
		if !isReply {
			t.Fatalf("query answered with %T", env.Msg)
		}
		if qr.CommittedHeight == 0 || qr.BlockHash.IsZero() {
			t.Fatalf("empty query reply: %+v", qr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("query unanswered")
	}
}

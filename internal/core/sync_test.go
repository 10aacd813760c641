package core

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/protocol/hotstuff"
	"github.com/bamboo-bft/bamboo/internal/safety"
	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// syncTestCfg shrinks the keep window to the minimum and parks the
// view timer so direct-drive tests control every event.
func syncTestCfg() config.Config {
	cfg := testCfg()
	cfg.ForestKeep = 8
	cfg.Timeout = time.Hour
	return cfg
}

// buildCertifiedChain manufactures `length` committed blocks with real
// quorum certificates: block h is proposed by the round-robin leader
// of view h and certified by a quorum of signatures the next block
// carries — the exact material an honest peer's ledger serves.
func buildCertifiedChain(t *testing.T, scheme crypto.Scheme, cfg config.Config, length int) []*types.Block {
	t.Helper()
	parentQC := types.GenesisQC()
	chain := make([]*types.Block, 0, length)
	for h := 1; h <= length; h++ {
		view := types.View(h)
		proposer := types.NodeID((h-1)%cfg.N + 1)
		payload := []types.Transaction{{
			ID:      types.TxID{Client: 900, Seq: uint64(h)},
			Command: kvstore.EncodeSet("k", []byte{byte(h)}, 0),
		}}
		b := safety.BuildBlock(proposer, view, parentQC, payload)
		sig, err := scheme.Sign(proposer, types.SigningDigest(view, b.ID()))
		if err != nil {
			t.Fatal(err)
		}
		b.Sig = sig
		qc := &types.QC{View: view, BlockID: b.ID()}
		for i := 1; i <= cfg.Quorum(); i++ {
			id := types.NodeID(i)
			s, err := scheme.Sign(id, types.SigningDigest(view, b.ID()))
			if err != nil {
				t.Fatal(err)
			}
			qc.Signers = append(qc.Signers, id)
			qc.Sigs = append(qc.Sigs, s)
		}
		chain = append(chain, b)
		parentQC = qc
	}
	return chain
}

// syncFixture is a single un-started replica on a switch whose other
// slots are raw endpoints, so tests drive the handlers directly and
// inspect exactly what the node sends.
type syncFixture struct {
	n     *Node
	store *kvstore.Store
	peers map[types.NodeID]*network.Endpoint
	chain []*types.Block
}

func newSyncFixture(t *testing.T, cfg config.Config, led *ledger.Ledger) *syncFixture {
	t.Helper()
	sw := network.NewSwitch(nil)
	peers := make(map[types.NodeID]*network.Endpoint, cfg.N)
	var self *network.Endpoint
	for i := 1; i <= cfg.N; i++ {
		ep, err := sw.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == cfg.N {
			self = ep
		} else {
			peers[types.NodeID(i)] = ep
		}
	}
	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.New()
	snaps, err := snapshot.OpenStore(filepath.Join(t.TempDir(), "replica.snap"))
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(types.NodeID(cfg.N), cfg, hotstuff.New, self, scheme, Options{
		Execute:   store.Apply,
		Ledger:    led,
		State:     store,
		Snapshots: snaps,
		OnViolation: func(err error) {
			t.Errorf("violation during sync: %v", err)
		},
	})
	// The fixture drives handlers directly, without an event loop, but
	// commits and snapshot installs still ride the apply stage.
	n.apply = newApplier(n, n.applyQueue)
	t.Cleanup(func() { n.apply.stop() })
	return &syncFixture{
		n:     n,
		store: store,
		peers: peers,
		chain: buildCertifiedChain(t, scheme, cfg, 40),
	}
}

// settle returns once the apply stage has run every job enqueued so
// far; assertions on the state machine, ledger or snapshot store
// follow it.
func (fx *syncFixture) settle() {
	fx.n.apply.stop()
	fx.n.apply = newApplier(fx.n, fx.n.applyQueue)
}

// triggerDeepSync feeds the fixture an orphan whose certificate is far
// past the keep window and asserts the node enters catch-up mode,
// requesting from the orphan's sender.
func (fx *syncFixture) triggerDeepSync(t *testing.T, from types.NodeID) {
	t.Helper()
	deep := fx.chain[len(fx.chain)-1]
	fx.n.onProposal(from, types.ProposalMsg{Block: deep}, true)
	if fx.n.catchup.state == syncIdle {
		t.Fatal("deep orphan did not start catch-up")
	}
	if fx.n.catchup.target != from {
		t.Fatalf("sync target %s, want %s", fx.n.catchup.target, from)
	}
	wantFrom := fx.n.forest.CommittedHeight() + 1
	if got := fx.drainFor(t, from); got.From != wantFrom {
		t.Fatalf("request range starts at %d, want %d", got.From, wantFrom)
	}
}

// drainFor empties a peer's inbox and returns the last SyncRequestMsg
// seen there.
func (fx *syncFixture) drainFor(t *testing.T, id types.NodeID) types.SyncRequestMsg {
	t.Helper()
	var req types.SyncRequestMsg
	found := false
	for {
		select {
		case env := <-fx.peers[id].Inbox():
			if m, ok := env.Msg.(types.SyncRequestMsg); ok {
				req, found = m, true
			}
		default:
			if !found {
				t.Fatal("no sync request reached the serving peer")
			}
			return req
		}
	}
}

// TestDeepSyncHappyPath: a verified range fast-forwards forest, state
// machine, and ledger, holding back the uncertified tail, and the
// replica then serves shallow ranges back out of its own forest and
// deep ranges out of its ledger.
func TestDeepSyncHappyPath(t *testing.T) {
	cfg := syncTestCfg()
	led, err := ledger.OpenBuffered(filepath.Join(t.TempDir(), "sync.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	fx := newSyncFixture(t, cfg, led)
	fx.triggerDeepSync(t, 1)

	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 1, Blocks: fx.chain, Head: 40})
	fx.settle()
	wantHeight := uint64(len(fx.chain) - syncHoldback)
	if got := fx.n.forest.CommittedHeight(); got != wantHeight {
		t.Fatalf("committed height %d after sync, want %d (holdback %d)", got, wantHeight, syncHoldback)
	}
	if fx.n.catchup.state != syncIdle {
		t.Fatal("still syncing after reaching the served head")
	}
	if got := fx.store.Applied(); got != wantHeight {
		t.Fatalf("state machine applied %d txs, want %d", got, wantHeight)
	}
	if got := led.Height(); got != wantHeight {
		t.Fatalf("ledger height %d, want %d", got, wantHeight)
	}
	if got := fx.n.Pipeline().Snapshot().SyncBlocksApplied; got != wantHeight {
		t.Fatalf("SyncBlocksApplied = %d, want %d", got, wantHeight)
	}
	st := fx.n.Status()
	if st.Syncing || st.SyncApplied != wantHeight {
		t.Fatalf("status not reflecting sync: %+v", st)
	}

	// Shallow range: served from the forest keep window.
	fx.n.onSyncRequest(2, types.SyncRequestMsg{From: wantHeight - 3})
	resp := lastSyncResponse(t, fx.peers[2])
	if len(resp.Blocks) != 4 || resp.Head != wantHeight {
		t.Fatalf("forest-served range wrong: %d blocks, head %d", len(resp.Blocks), resp.Head)
	}
	// A hostile inverted range must be ignored, not allocated for.
	fx.n.onSyncRequest(2, types.SyncRequestMsg{From: 30, To: 3})
	// Deep range: far below the keep window, served from the ledger.
	fx.n.onSyncRequest(2, types.SyncRequestMsg{From: 1, To: 10})
	resp = lastSyncResponse(t, fx.peers[2])
	if len(resp.Blocks) != 10 {
		t.Fatalf("ledger-served range wrong: %d blocks", len(resp.Blocks))
	}
	for i, b := range resp.Blocks {
		if b.ID() != fx.chain[i].ID() {
			t.Fatalf("ledger-served block %d has wrong identity", i)
		}
		if b.QC == nil {
			t.Fatalf("ledger-served block %d lost its certificate", i)
		}
	}
	if fx.n.Pipeline().Snapshot().SyncBatchesServed != 2 {
		t.Fatal("served batches not counted")
	}
}

// lastSyncResponse drains an endpoint and returns the last
// SyncResponseMsg delivered to it.
func lastSyncResponse(t *testing.T, ep *network.Endpoint) types.SyncResponseMsg {
	t.Helper()
	var resp types.SyncResponseMsg
	found := false
	for {
		select {
		case env := <-ep.Inbox():
			if m, ok := env.Msg.(types.SyncResponseMsg); ok {
				resp, found = m, true
			}
		default:
			if !found {
				t.Fatal("no sync response delivered")
			}
			return resp
		}
	}
}

// reblock rebuilds a block with a substituted payload — a tampering
// helper that leaves certificate and signature untouched, exactly what
// a Byzantine peer rewriting history would ship.
func reblock(b *types.Block, payload []types.Transaction) *types.Block {
	return &types.Block{
		View:     b.View,
		Proposer: b.Proposer,
		Parent:   b.Parent,
		QC:       b.QC,
		Payload:  payload,
		Sig:      b.Sig,
	}
}

// TestSyncRejectsTamperedBlocks: a response with one rewritten payload
// must be rejected wholesale, with forest and kvstore untouched.
func TestSyncRejectsTamperedBlocks(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	fx.triggerDeepSync(t, 1)

	forged := make([]*types.Block, len(fx.chain))
	copy(forged, fx.chain)
	forged[10] = reblock(fx.chain[10], []types.Transaction{{
		ID:      types.TxID{Client: 666, Seq: 1},
		Command: kvstore.EncodeSet("stolen", []byte("funds"), 0),
	}})
	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 1, Blocks: forged, Head: 40})

	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("tampered range advanced the chain to %d", h)
	}
	if fx.store.Applied() != 0 {
		t.Fatal("tampered range reached the state machine")
	}
	if fx.n.Pipeline().Snapshot().SyncRejected == 0 {
		t.Fatal("tampered response not counted as rejected")
	}
	if fx.n.catchup.state == syncIdle {
		t.Fatal("rejection must keep catch-up alive for a retry")
	}
	if fx.n.catchup.target == 1 {
		t.Fatal("target not rotated away from the lying peer")
	}
}

// TestSyncRejectsWrongRange: a reply whose range does not start at the
// requester's next height is dropped before verification.
func TestSyncRejectsWrongRange(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	fx.triggerDeepSync(t, 1)

	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 5, Blocks: fx.chain[4:20], Head: 40})
	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("mis-ranged reply advanced the chain to %d", h)
	}
	if fx.n.Pipeline().Snapshot().SyncRejected != 1 {
		t.Fatal("mis-ranged reply not counted as rejected")
	}
}

// TestSyncRejectsUnsolicited: responses out of the blue — no catch-up
// episode, or from a peer other than the one asked — change nothing.
func TestSyncRejectsUnsolicited(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	// No episode at all.
	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 1, Blocks: fx.chain, Head: 40})
	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("unsolicited response applied: height %d", h)
	}
	if fx.store.Applied() != 0 {
		t.Fatal("unsolicited response reached the state machine")
	}
	if fx.n.Pipeline().Snapshot().SyncRejected != 1 {
		t.Fatal("unsolicited response not counted")
	}
	// Episode active, but the reply comes from the wrong replica.
	fx.triggerDeepSync(t, 1)
	fx.n.onSyncResponse(2, types.SyncResponseMsg{From: 1, Blocks: fx.chain, Head: 40})
	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("wrong-peer response applied: height %d", h)
	}
	if fx.n.Pipeline().Snapshot().SyncRejected != 2 {
		t.Fatal("wrong-peer response not counted")
	}
}

// TestSyncRejectsForgedGenesisCertificates: view-0 certificates are
// implicitly valid only for the true genesis block; a chain that uses
// them to skip signature checks anywhere else must die.
func TestSyncRejectsForgedGenesisCertificates(t *testing.T) {
	cfg := syncTestCfg()
	fx := newSyncFixture(t, cfg, nil)
	fx.triggerDeepSync(t, 1)

	// Rebuild the first blocks with "genesis" QCs: no signatures at
	// all, each naming its parent so the structural checks pass.
	forged := make([]*types.Block, 8)
	parent := types.Genesis().ID()
	for i := range forged {
		b := safety.BuildBlock(types.NodeID(i%cfg.N+1), types.View(i+1),
			&types.QC{View: 0, BlockID: parent}, nil)
		forged[i] = b
		parent = b.ID()
	}
	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 1, Blocks: forged, Head: 40})
	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("forged-genesis chain applied: height %d", h)
	}
	if fx.n.Pipeline().Snapshot().SyncRejected == 0 {
		t.Fatal("forged-genesis chain not rejected")
	}
}

// TestSyncRejectsSubQuorumCertificates: certificates signed by fewer
// than a quorum (here, a single colluding replica) are refused.
func TestSyncRejectsSubQuorumCertificates(t *testing.T) {
	cfg := syncTestCfg()
	fx := newSyncFixture(t, cfg, nil)
	fx.triggerDeepSync(t, 1)

	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	forged := make([]*types.Block, 8)
	parentQC := types.GenesisQC()
	for i := range forged {
		view := types.View(i + 1)
		b := safety.BuildBlock(1, view, parentQC, nil)
		forged[i] = b
		sig, err := scheme.Sign(1, types.SigningDigest(view, b.ID()))
		if err != nil {
			t.Fatal(err)
		}
		parentQC = &types.QC{View: view, BlockID: b.ID(),
			Signers: []types.NodeID{1}, Sigs: [][]byte{sig}}
	}
	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 1, Blocks: forged, Head: 40})
	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("sub-quorum chain applied: height %d", h)
	}
	if fx.n.Pipeline().Snapshot().SyncRejected == 0 {
		t.Fatal("sub-quorum chain not rejected")
	}
}

// TestSyncRetryRotatesTarget: a stalled round (silent or crashed
// serving peer) rotates to the next replica and re-sends, skipping
// this replica's own ID. A retry whose view gap has closed instead
// ends the episode — TestSyncRetryEndsCaughtUpEpisode below.
func TestSyncRetryRotatesTarget(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	fx.triggerDeepSync(t, 3)

	// Live certificates keep advancing the pacemaker during a real
	// episode; mirror that, or the retry handler concludes the view
	// gap has closed and (correctly) retires the episode instead.
	fx.n.handleQC(fx.chain[len(fx.chain)-1].QC)
	fx.n.onSyncRetry(syncRetryEvent{epoch: fx.n.catchup.epoch})
	if fx.n.catchup.target != 1 {
		t.Fatalf("stalled round rotated to %s, want n1 (n4 is self)", fx.n.catchup.target)
	}
	if fx.drainFor(t, 1).From != 1 {
		t.Fatal("rotated request not re-sent")
	}
	// A stale epoch (earlier episode's timer) must not touch state.
	fx.n.onSyncRetry(syncRetryEvent{epoch: fx.n.catchup.epoch - 1})
	if fx.n.catchup.target != 1 {
		t.Fatal("stale retry epoch rotated the target")
	}
}

// TestSyncRetryEndsCaughtUpEpisode: an episode whose committed head
// view is back within a keep window of the live view has nothing left
// for deep sync to do (the shallow fetch path covers it) — the stall
// timer retires it instead of re-requesting forever. This is also the
// safety valve for false triggers from timeout-churned view gaps.
func TestSyncRetryEndsCaughtUpEpisode(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	fx.triggerDeepSync(t, 1)
	// CurView stays at 1 in this fixture, within a window of the
	// committed head's view 0: the premise for deep sync is gone.
	fx.n.onSyncRetry(syncRetryEvent{epoch: fx.n.catchup.epoch})
	if fx.n.catchup.state != syncIdle {
		t.Fatal("caught-up episode not retired by the stall timer")
	}
	if fx.n.Status().Syncing {
		t.Fatal("status still reports syncing")
	}
}

// TestShallowGapDoesNotTriggerSync: an orphan inside the keep window
// stays on the cheap FetchMsg path.
func TestShallowGapDoesNotTriggerSync(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	near := fx.chain[4] // view 5, well inside the window of 8
	fx.n.onProposal(1, types.ProposalMsg{Block: near}, true)
	if fx.n.catchup.state != syncIdle {
		t.Fatal("shallow orphan escalated to deep sync")
	}
	if fx.n.Pipeline().Snapshot().SyncRequestsSent != 0 {
		t.Fatal("shallow orphan sent a sync request")
	}
}

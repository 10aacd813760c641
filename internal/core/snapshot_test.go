package core

import (
	"path/filepath"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// buildManifest derives the manifest an honest peer would serve after
// snapshotting at `height` of the fixture's certified chain, plus the
// payload backing it. The certificate is the next block's embedded QC
// — exactly what the capture path anchors with.
func buildManifest(t *testing.T, fx *syncFixture, height int, chunkSize uint32) (types.SnapshotManifestMsg, []byte) {
	t.Helper()
	if height >= len(fx.chain) {
		t.Fatalf("manifest height %d needs a certifying successor inside the %d-block chain", height, len(fx.chain))
	}
	scratch := kvstore.New()
	for _, b := range fx.chain[:height] {
		scratch.Apply(b.Payload)
	}
	payload := scratch.SnapshotState()
	return types.SnapshotManifestMsg{
		Height:       uint64(height),
		Block:        fx.chain[height-1].StripPayload(),
		QC:           fx.chain[height].QC,
		StateDigest:  snapshot.Digest(payload),
		TotalSize:    uint64(len(payload)),
		ChunkSize:    chunkSize,
		ChunkDigests: snapshot.ChunkDigests(payload, chunkSize),
	}, payload
}

// triggerSnapshotPhase drives the fixture to manifest collection: a
// deep orphan starts the episode, and the target's floor response
// (its ledger compacted past our whole gap) flips it to the snapshot
// path. Asserts manifest requests went to every peer.
func triggerSnapshotPhase(t *testing.T, fx *syncFixture) {
	t.Helper()
	fx.triggerDeepSync(t, 1)
	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 1, Head: 40, Floor: 31})
	if fx.n.catchup.state != syncManifests {
		t.Fatalf("floor response left episode in state %d, want manifests", fx.n.catchup.state)
	}
	for id := types.NodeID(1); id <= 3; id++ {
		if !drainForSnapshotRequest(t, fx, id) {
			t.Fatalf("no manifest request reached peer %s", id)
		}
	}
}

// drainForSnapshotRequest empties a peer's inbox and reports whether
// a manifest request (zero height) arrived.
func drainForSnapshotRequest(t *testing.T, fx *syncFixture, id types.NodeID) bool {
	t.Helper()
	found := false
	for {
		select {
		case env := <-fx.peers[id].Inbox():
			if m, ok := env.Msg.(types.SnapshotRequestMsg); ok && m.Height == 0 {
				found = true
			}
		default:
			return found
		}
	}
}

// drainForChunkRequest empties a peer's inbox and returns the last
// chunk request seen there.
func drainForChunkRequest(t *testing.T, fx *syncFixture, id types.NodeID) (types.SnapshotRequestMsg, bool) {
	t.Helper()
	var req types.SnapshotRequestMsg
	found := false
	for {
		select {
		case env := <-fx.peers[id].Inbox():
			if m, ok := env.Msg.(types.SnapshotRequestMsg); ok && m.Height > 0 {
				req, found = m, true
			}
		default:
			return req, found
		}
	}
}

// serveChunks answers the node's chunk requests from `payload` as peer
// `from` until the node stops asking (install or rejection).
func serveChunks(t *testing.T, fx *syncFixture, from types.NodeID, m types.SnapshotManifestMsg, payload []byte) {
	t.Helper()
	for {
		if fx.n.catchup.state != syncChunks {
			return // installed (or rejected): leave follow-up traffic undrained
		}
		req, ok := drainForChunkRequest(t, fx, from)
		if !ok {
			return
		}
		fx.n.onSnapshotChunk(from, types.SnapshotChunkMsg{
			Height: req.Height,
			Chunk:  req.Chunk,
			Data:   snapshot.Chunk(payload, m.ChunkSize, req.Chunk),
		})
	}
}

// TestSnapshotInstallHappyPath: floor → manifests from f+1 peers →
// chunk stream → install at the snapshot height → ranged suffix. The
// state machine, forest, ledger, local snapshot store, and status
// surface all land on the snapshot.
func TestSnapshotInstallHappyPath(t *testing.T) {
	cfg := syncTestCfg()
	led, err := ledger.OpenBuffered(filepath.Join(t.TempDir(), "sync.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	fx := newSyncFixture(t, cfg, led)
	triggerSnapshotPhase(t, fx)

	// A small chunk size forces a multi-chunk stream.
	man, payload := buildManifest(t, fx, 30, 4)
	fx.n.onSnapshotManifest(1, man)
	if fx.n.catchup.state != syncChunks {
		// One manifest is below the f+1 threshold (f=1 at n=4).
		if fx.n.catchup.state != syncManifests {
			t.Fatalf("single manifest moved episode to state %d", fx.n.catchup.state)
		}
	} else {
		t.Fatal("single manifest reached agreement")
	}
	fx.n.onSnapshotManifest(2, man)
	if fx.n.catchup.state != syncChunks {
		t.Fatalf("f+1 agreeing manifests left state %d, want chunks", fx.n.catchup.state)
	}
	// The blocks-phase target is part of the agreement: it serves.
	if fx.n.catchup.chunkSrc != 1 {
		t.Fatalf("chunk source %s, want the episode target n1", fx.n.catchup.chunkSrc)
	}
	serveChunks(t, fx, 1, man, payload)
	fx.settle()

	if h := fx.n.forest.CommittedHeight(); h != 30 {
		t.Fatalf("committed height %d after install, want 30", h)
	}
	if fx.n.forest.CommittedHead().ID() != fx.chain[29].ID() {
		t.Fatal("committed head is not the snapshot block")
	}
	if got := fx.store.Applied(); got != 30 {
		t.Fatalf("state machine applied %d after install, want 30", got)
	}
	if led.Base() != 30 || led.Height() != 30 {
		t.Fatalf("ledger not re-based: base %d height %d", led.Base(), led.Height())
	}
	if snap, _, ok := fx.n.opts.Snapshots.Latest(); !ok || snap.Height != 30 {
		t.Fatal("installed snapshot not persisted locally")
	}
	p := fx.n.Pipeline().Snapshot()
	if p.SnapshotInstalls != 1 {
		t.Fatalf("SnapshotInstalls = %d, want 1", p.SnapshotInstalls)
	}
	st := fx.n.Status()
	if st.SnapshotHeight != 30 || st.SnapshotDigest != man.StateDigest {
		t.Fatalf("status snapshot fields wrong: %+v", st)
	}
	if !st.Syncing {
		t.Fatal("suffix phase must still report syncing")
	}
	// The episode dropped back to the blocks phase for the suffix.
	if got := fx.drainFor(t, 1); got.From != 31 {
		t.Fatalf("suffix request starts at %d, want 31", got.From)
	}
	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 31, Blocks: fx.chain[30:], Head: 40, Floor: 31})
	wantHeight := uint64(40 - syncHoldback)
	fx.settle()
	if h := fx.n.forest.CommittedHeight(); h != wantHeight {
		t.Fatalf("suffix advanced to %d, want %d", h, wantHeight)
	}
	if fx.store.Applied() != wantHeight {
		t.Fatalf("state machine at %d after suffix, want %d", fx.store.Applied(), wantHeight)
	}
	if fx.n.catchup.state != syncIdle {
		t.Fatal("episode still open after reaching the served head")
	}

	// The block planted at the install height is a payload-stripped
	// header — its transactions live in the snapshot state. Serving
	// it through block sync would hand a requester a block it cannot
	// execute; the server must answer with its floor instead, routing
	// the requester to the snapshot path.
	fx.n.onSyncRequest(2, types.SyncRequestMsg{From: 30, To: 30})
	resp := lastSyncResponse(t, fx.peers[2])
	if len(resp.Blocks) != 0 {
		t.Fatalf("stripped install-height block served: %d blocks", len(resp.Blocks))
	}
	if resp.Floor != 31 {
		t.Fatalf("floor reply = %d, want 31", resp.Floor)
	}
}

// TestSyncRejectsStrippedBlocks: a range containing a payload-less
// header whose identity commits to a payload must die in chain
// verification. The certificate chain around such a block is fully
// valid (the ID covers the payload only through its digest), so
// without the binding check the requester would commit the block and
// execute an empty transaction list — state divergence hidden behind
// matching block hashes.
func TestSyncRejectsStrippedBlocks(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	fx.triggerDeepSync(t, 1)

	forged := make([]*types.Block, 20)
	copy(forged, fx.chain[:20])
	forged[10] = fx.chain[10].StripPayload()
	fx.n.onSyncResponse(1, types.SyncResponseMsg{From: 1, Blocks: forged, Head: 40})

	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("stripped-block range advanced the chain to %d", h)
	}
	if fx.store.Applied() != 0 {
		t.Fatal("stripped-block range reached the state machine")
	}
	if fx.n.Pipeline().Snapshot().SyncRejected == 0 {
		t.Fatal("stripped-block range not counted as rejected")
	}
}

// TestManifestStallFallsBackToBlocks: a forged floor must not park
// the episode forever. When no f+1 manifest agreement forms (here:
// nobody answers at all — the shape of a cluster with no snapshots),
// the stalled manifest phase drops back to the blocks phase with a
// rotated target.
func TestManifestStallFallsBackToBlocks(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	triggerSnapshotPhase(t, fx)
	// Keep the episode's premise alive (a deep view gap), as live
	// certificates would during a real episode.
	fx.n.handleQC(fx.chain[len(fx.chain)-1].QC)

	for i := 0; i <= manifestStallLimit; i++ {
		if fx.n.catchup.state != syncManifests {
			t.Fatalf("left the manifest phase after %d stalls", i)
		}
		fx.n.onSyncRetry(syncRetryEvent{epoch: fx.n.catchup.epoch})
	}
	if fx.n.catchup.state != syncBlocks {
		t.Fatalf("stalled manifest phase in state %d, want blocks", fx.n.catchup.state)
	}
	if fx.n.catchup.target == 1 {
		t.Fatal("fallback did not rotate away from the floor-forging target")
	}
	if got := fx.drainFor(t, fx.n.catchup.target); got.From != 1 {
		t.Fatalf("fallback request starts at %d, want 1", got.From)
	}
}

// TestSnapshotManifestCrossCheck: manifests disagreeing on the state
// digest never reach agreement alone — the forged copy is stranded in
// a minority group while the honest pair installs. This is the f+1
// cross-check doing its job against a peer serving a corrupt state.
func TestSnapshotManifestCrossCheck(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	triggerSnapshotPhase(t, fx)

	man, payload := buildManifest(t, fx, 30, 4)
	forged := man
	forged.StateDigest = types.Hash{0xba, 0xad}
	fx.n.onSnapshotManifest(1, forged)
	fx.n.onSnapshotManifest(2, man)
	if fx.n.catchup.state != syncManifests {
		t.Fatalf("divergent digests reached agreement: state %d", fx.n.catchup.state)
	}
	fx.n.onSnapshotManifest(3, man)
	if fx.n.catchup.state != syncChunks {
		t.Fatalf("honest pair did not reach agreement: state %d", fx.n.catchup.state)
	}
	// The forger is outside the rotation set; the honest pair serves.
	if fx.n.catchup.chunkSrc == 1 {
		t.Fatal("forging peer chosen as chunk source")
	}
	serveChunks(t, fx, fx.n.catchup.chunkSrc, man, payload)
	if fx.n.forest.CommittedHeight() != 30 {
		t.Fatal("honest snapshot not installed")
	}
}

// TestSnapshotRejectsForgedHeight: a height lie is internally
// consistent — the certificate binds the snapshot BLOCK, not the
// height the manifest claims for it — so structural validation alone
// cannot catch it. The f+1 cross-check must: a lone forger claiming
// the snapshot sits higher (which would make the requester skip real
// history) stays a minority group, and the honest pair installs at
// the true height.
func TestSnapshotRejectsForgedHeight(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	triggerSnapshotPhase(t, fx)

	man, payload := buildManifest(t, fx, 30, 4)
	forged := man
	forged.Height = man.Height + 7 // same block, same digest, lying height
	fx.n.onSnapshotManifest(1, forged)
	fx.n.onSnapshotManifest(2, man)
	if fx.n.catchup.state != syncManifests {
		t.Fatalf("height forgery broke the cross-check: state %d", fx.n.catchup.state)
	}
	fx.n.onSnapshotManifest(3, man)
	if fx.n.catchup.state != syncChunks || fx.n.catchup.chosen.Height != 30 {
		t.Fatalf("honest height not chosen: state %d", fx.n.catchup.state)
	}
	serveChunks(t, fx, fx.n.catchup.chunkSrc, man, payload)
	if h := fx.n.forest.CommittedHeight(); h != 30 {
		t.Fatalf("installed at height %d, want the honest 30", h)
	}
}

// TestSnapshotRejectsForgedManifests: manifests with a forged height
// (certificate naming a different block), a sub-quorum certificate,
// or an inconsistent chunk list are rejected before they can count
// toward agreement — even delivered twice from different peers.
func TestSnapshotRejectsForgedManifests(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	triggerSnapshotPhase(t, fx)
	man, _ := buildManifest(t, fx, 30, 4)

	wrongBlock := man
	wrongBlock.Block = fx.chain[20].StripPayload() // QC names chain[29]
	subQuorum := man
	subQuorum.QC = &types.QC{View: man.QC.View, BlockID: man.QC.BlockID,
		Signers: man.QC.Signers[:1], Sigs: man.QC.Sigs[:1]}
	badChunks := man
	badChunks.ChunkDigests = man.ChunkDigests[:1]
	hugeState := man
	hugeState.TotalSize = snapshot.MaxStateSize + 1

	rejected := fx.n.Pipeline().Snapshot().SyncRejected
	for _, forged := range []types.SnapshotManifestMsg{wrongBlock, subQuorum, badChunks, hugeState} {
		fx.n.onSnapshotManifest(1, forged)
		fx.n.onSnapshotManifest(2, forged)
		if fx.n.catchup.state != syncManifests {
			t.Fatalf("forged manifest advanced the episode: %+v", forged)
		}
	}
	if got := fx.n.Pipeline().Snapshot().SyncRejected; got != rejected+8 {
		t.Fatalf("rejected counter %d, want %d", got, rejected+8)
	}
	if len(fx.n.catchup.manifests) != 0 {
		t.Fatal("forged manifests counted toward agreement")
	}
}

// TestSnapshotRejectsTamperedChunk: a chunk failing its manifest
// digest is dropped, the serving peer is rotated away from, and the
// same index is re-requested — the stream then completes from an
// honest peer.
func TestSnapshotRejectsTamperedChunk(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	triggerSnapshotPhase(t, fx)
	man, payload := buildManifest(t, fx, 30, 4)
	fx.n.onSnapshotManifest(1, man)
	fx.n.onSnapshotManifest(3, man)
	if fx.n.catchup.chunkSrc != 1 {
		t.Fatalf("chunk source %s, want n1", fx.n.catchup.chunkSrc)
	}

	req, ok := drainForChunkRequest(t, fx, 1)
	if !ok {
		t.Fatal("no chunk request sent")
	}
	evil := append([]byte(nil), snapshot.Chunk(payload, man.ChunkSize, req.Chunk)...)
	evil[0] ^= 0xff
	fx.n.onSnapshotChunk(1, types.SnapshotChunkMsg{Height: req.Height, Chunk: req.Chunk, Data: evil})

	if len(fx.n.catchup.buf) != 0 {
		t.Fatal("tampered chunk entered the buffer")
	}
	if fx.n.Pipeline().Snapshot().SyncRejected == 0 {
		t.Fatal("tampered chunk not counted as rejected")
	}
	if fx.n.catchup.chunkSrc != 3 {
		t.Fatalf("chunk source not rotated: %s", fx.n.catchup.chunkSrc)
	}
	// A chunk from the deposed peer is now unsolicited.
	fx.n.onSnapshotChunk(1, types.SnapshotChunkMsg{Height: req.Height, Chunk: req.Chunk,
		Data: snapshot.Chunk(payload, man.ChunkSize, req.Chunk)})
	if len(fx.n.catchup.buf) != 0 {
		t.Fatal("chunk from deposed peer accepted")
	}
	// The honest peer finishes the stream.
	serveChunks(t, fx, 3, man, payload)
	fx.settle()
	if fx.n.forest.CommittedHeight() != 30 {
		t.Fatal("install did not recover from the tampered chunk")
	}
	if fx.store.Applied() != 30 {
		t.Fatalf("state machine at %d, want 30", fx.store.Applied())
	}
}

// TestBootstrapReplaysOwnLedger: a node with a ledger replays its
// ledger into forest and state machine before joining — committed
// height, execution, the replay counter, and the view all land at the
// pre-crash position without a single network message.
func TestBootstrapReplaysOwnLedger(t *testing.T) {
	cfg := syncTestCfg()
	led, err := ledger.OpenBuffered(filepath.Join(t.TempDir(), "boot.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	fx := newSyncFixture(t, cfg, led)
	for i, b := range fx.chain[:20] {
		if err := led.AppendCertified(b, uint64(i+1), fx.chain[i+1].QC); err != nil {
			t.Fatal(err)
		}
	}
	fx.n.bootstrap()

	// The FULL ledger is re-committed, tip included: the safety WAL
	// closed the amnesia window that used to force a held-back tail,
	// so every persisted height is committed, executed, and counted.
	const wantCommitted = uint64(20)
	if h := fx.n.forest.CommittedHeight(); h != wantCommitted {
		t.Fatalf("bootstrap committed height %d, want %d", h, wantCommitted)
	}
	if fx.store.Applied() != wantCommitted {
		t.Fatalf("bootstrap executed %d txs, want %d", fx.store.Applied(), wantCommitted)
	}
	if got := fx.n.Pipeline().Snapshot().ReplayedBlocks; got != wantCommitted {
		t.Fatalf("ReplayedBlocks = %d, want %d", got, wantCommitted)
	}
	// The freshest replayed certificate — the tip's own, at the tip's
	// view — sets the rejoin view.
	if v := fx.n.pm.CurView(); v != fx.chain[19].View+1 {
		t.Fatalf("view %d after bootstrap, want %d", v, fx.chain[19].View+1)
	}
	if h, ok := fx.n.HashAt(7); !ok || h != fx.chain[6].ID() {
		t.Fatal("replayed hashes not published")
	}
	// Nothing was rolled back: live appends continue right above the
	// replayed tip.
	if led.Height() != wantCommitted {
		t.Fatalf("ledger height %d after bootstrap, want %d", led.Height(), wantCommitted)
	}
}

// TestBootstrapFromSnapshotAndSuffix: with a local snapshot under a
// compacted ledger, bootstrap restores the snapshot and replays only
// the suffix — O(gap), not O(chain).
func TestBootstrapFromSnapshotAndSuffix(t *testing.T) {
	cfg := syncTestCfg()
	dir := t.TempDir()
	led, err := ledger.OpenBuffered(filepath.Join(dir, "boot.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	fx := newSyncFixture(t, cfg, led)

	man, payload := buildManifest(t, fx, 30, snapshot.ChunkSize)
	snap := &snapshot.Snapshot{Height: 30, Block: man.Block, QC: man.QC,
		StateDigest: man.StateDigest, Payload: payload}
	if err := fx.n.opts.Snapshots.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := led.ResetTo(30); err != nil {
		t.Fatal(err)
	}
	for i, b := range fx.chain[30:36] {
		if err := led.AppendCertified(b, uint64(31+i), fx.chain[31+i].QC); err != nil {
			t.Fatal(err)
		}
	}
	fx.n.bootstrap()

	const wantCommitted = uint64(36)
	if h := fx.n.forest.CommittedHeight(); h != wantCommitted {
		t.Fatalf("bootstrap committed height %d, want %d", h, wantCommitted)
	}
	if fx.store.Applied() != wantCommitted {
		t.Fatalf("state machine at %d, want %d (30 restored + replayed suffix)",
			fx.store.Applied(), wantCommitted)
	}
	p := fx.n.Pipeline().Snapshot()
	if p.ReplayedBlocks != wantCommitted-30 {
		t.Fatalf("ReplayedBlocks = %d, want the full suffix of %d",
			p.ReplayedBlocks, wantCommitted-30)
	}
	st := fx.n.Status()
	if st.SnapshotHeight != 30 {
		t.Fatalf("status snapshot height %d, want 30", st.SnapshotHeight)
	}
	if _, ok := fx.n.HashAt(12); ok {
		t.Fatal("pre-snapshot heights claim hashes that were never replayed")
	}
	if h, ok := fx.n.HashAt(33); !ok || h != fx.chain[32].ID() {
		t.Fatal("suffix hashes not published")
	}
}

// TestBootstrapNoopOnFreshDisk: an empty ledger and no snapshot leave
// the node exactly at genesis.
func TestBootstrapNoopOnFreshDisk(t *testing.T) {
	cfg := syncTestCfg()
	led, err := ledger.OpenBuffered(filepath.Join(t.TempDir(), "fresh.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	fx := newSyncFixture(t, cfg, led)
	fx.n.bootstrap()
	if h := fx.n.forest.CommittedHeight(); h != 0 {
		t.Fatalf("fresh bootstrap committed height %d, want 0", h)
	}
	if fx.n.Pipeline().Snapshot().ReplayedBlocks != 0 {
		t.Fatal("fresh bootstrap replayed blocks")
	}
	if fx.n.pm.CurView() != 1 {
		t.Fatal("fresh bootstrap moved the view")
	}
}

// TestPeerServesManifestAndChunks: the serving side — a replica whose
// snapshot store holds a snapshot answers manifest requests (counted)
// and chunk requests, ignores stale heights, and never answers
// without a snapshot.
func TestPeerServesManifestAndChunks(t *testing.T) {
	fx := newSyncFixture(t, syncTestCfg(), nil)
	// No snapshot yet: requests go unanswered.
	fx.n.onSnapshotRequest(2, types.SnapshotRequestMsg{})
	select {
	case env := <-fx.peers[2].Inbox():
		t.Fatalf("snapshot-less replica answered: %T", env.Msg)
	default:
	}

	man, payload := buildManifest(t, fx, 30, snapshot.ChunkSize)
	snap := &snapshot.Snapshot{Height: 30, Block: man.Block, QC: man.QC,
		StateDigest: man.StateDigest, Payload: payload}
	if err := fx.n.opts.Snapshots.Save(snap); err != nil {
		t.Fatal(err)
	}
	fx.n.onSnapshotRequest(2, types.SnapshotRequestMsg{})
	env := <-fx.peers[2].Inbox()
	served, ok := env.Msg.(types.SnapshotManifestMsg)
	if !ok {
		t.Fatalf("manifest request answered with %T", env.Msg)
	}
	if served.Height != 30 || served.StateDigest != man.StateDigest ||
		served.TotalSize != uint64(len(payload)) {
		t.Fatalf("served manifest wrong: %+v", served)
	}
	if fx.n.Pipeline().Snapshot().SnapshotsServed != 1 {
		t.Fatal("served manifest not counted")
	}
	fx.n.onSnapshotRequest(2, types.SnapshotRequestMsg{Height: 30, Chunk: 0})
	env = <-fx.peers[2].Inbox()
	chunk, ok := env.Msg.(types.SnapshotChunkMsg)
	if !ok || chunk.Chunk != 0 || snapshot.Digest(chunk.Data) != served.ChunkDigests[0] {
		t.Fatalf("chunk request answered wrong: %T", env.Msg)
	}
	// Stale height: no answer (the requester renegotiates).
	fx.n.onSnapshotRequest(2, types.SnapshotRequestMsg{Height: 22, Chunk: 0})
	select {
	case env := <-fx.peers[2].Inbox():
		t.Fatalf("stale snapshot height answered: %T", env.Msg)
	default:
	}
}

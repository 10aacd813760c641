package core

// sync.go is the deep catch-up path: one episode state machine for a
// replica whose committed chain has fallen more than the forest keep
// window behind its peers. The per-block FetchMsg walk covers shallow
// gaps — a peer can serve any ancestor still inside its keep window —
// but under sustained load the committed chain outruns that window and
// the walk dead-ends on compacted history.
//
// An episode moves through up to three phases, sharing one stall
// timer, one serving-peer rotation, and one termination premise:
//
//	blocks    — stream contiguous committed-height ranges from the
//	            target's ledger, verify each batch as a certified
//	            chain anchored at the own committed head (with a
//	            3-block holdback), and fast-forward through the
//	            normal commit machinery.
//	manifests — entered when the target's ledger prefix is compacted
//	            above our gap (its SyncResponseMsg.Floor outruns us):
//	            collect snapshot manifests from every peer and wait
//	            for f+1 to agree on {height, block, state digest},
//	            which at least one honest replica must be part of.
//	chunks    — stream the agreed snapshot's state chunks, each
//	            verified against the manifest's chunk digests on
//	            arrival, install the state machine at the snapshot
//	            height, then drop back to the blocks phase for the
//	            suffix.
//
// Every phase re-checks the same premise on its stall timer: once the
// committed head's view is back within a keep window of the live
// view, the live fetch path covers the remainder and the episode
// ends.

import (
	"crypto/sha256"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/trace"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// syncBatchSize bounds the blocks in one SyncResponseMsg: large enough
// to amortize a round trip over many heights, small enough to keep one
// response's verification from monopolizing the event loop.
const syncBatchSize = 64

// syncHoldback is how many blocks at the end of a verified batch are
// NOT applied. Every applied block therefore has syncHoldback certified
// descendants inside the verified range — the evidence that keeps a
// Byzantine peer from feeding us a certified-but-abandoned suffix near
// the tip of its claimed chain. Three matches the deepest commit rule
// among the built-in protocols (chained HotStuff's three-chain): a
// conflicting certified two-chain can legitimately exist there (it is
// exactly what the third link rules out), so two descendants would be
// lock-grade, not commit-grade. The held-back heights are re-requested
// next round or recovered through the live fetch path.
const syncHoldback = 3

// chunkStallLimit is how many consecutive stalled chunk rounds the
// episode tolerates before renegotiating the manifest: if every
// agreeing peer has gone quiet (or compacted on to a newer snapshot),
// rotating inside the stale agreement set cannot make progress.
const chunkStallLimit = 2

// manifestStallLimit is how many consecutive stalled manifest rounds
// the episode tolerates before dropping back to the blocks phase with
// a rotated target. The manifests phase is entered on a peer's word —
// its SyncResponseMsg.Floor — and that word can be a lie: a Byzantine
// target forging a floor in a cluster where no honest replica has a
// snapshot would otherwise park the episode polling for f+1 agreement
// that can never form.
const manifestStallLimit = 2

// syncState names the phase of a catch-up episode.
type syncState int

const (
	// syncIdle: no episode running.
	syncIdle syncState = iota
	// syncBlocks: streaming ranged committed-block batches.
	syncBlocks
	// syncManifests: collecting snapshot manifests for the f+1
	// cross-check.
	syncManifests
	// syncChunks: streaming the agreed snapshot's state chunks.
	syncChunks
)

// syncEpisode is the state of one deep catch-up episode. A single
// episode may pass through all three phases (blocks → manifests →
// chunks → blocks again for the suffix); epoch invalidates stall
// timers armed by earlier phases or earlier episodes.
type syncEpisode struct {
	state syncState
	// target is the peer serving the blocks phase.
	target types.NodeID
	epoch  uint64
	// lastHeight is the committed height at the previous stall check
	// (blocks-phase progress marker).
	lastHeight uint64
	// manifests collects one manifest per peer during the manifests
	// phase; manifestSeen is the count at the previous stall check
	// and manifestStalls the consecutive checks without progress.
	manifests      map[types.NodeID]*types.SnapshotManifestMsg
	manifestSeen   int
	manifestStalls int
	// chosen is the f+1-agreed manifest being streamed; agree lists
	// the peers that vouched for it (the chunk-phase rotation set)
	// and chunkSrc the one currently serving.
	chosen   *types.SnapshotManifestMsg
	agree    []types.NodeID
	chunkSrc types.NodeID
	// buf accumulates verified chunks; nextChunk is the next index
	// wanted, chunkSeen the index at the previous stall check, and
	// chunkStalls the consecutive stalled checks.
	buf         []byte
	nextChunk   uint32
	chunkSeen   uint32
	chunkStalls int
}

// syncRetryEvent re-checks a catch-up round that may have stalled
// (crashed, partitioned, or Byzantine-silent serving peer). epoch
// invalidates timers from an earlier phase or episode.
type syncRetryEvent struct {
	epoch uint64
}

// syncRetryInterval is how long a round may stall before the request
// is re-sent to a rotated peer.
func (n *Node) syncRetryInterval() time.Duration {
	d := 2 * n.cfg.Timeout
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// maybeStartSync enters catch-up mode when an unattachable proposal's
// certificate shows the chain has moved more than a keep window past
// this replica's committed view — the point where the FetchMsg walk is
// doomed, because the ancestors it would fetch are already compacted
// out of every peer's forest. Views advance at least as fast as
// heights, so a view gap below the window can never hide a height gap
// beyond it; a view gap inflated by timeout churn merely triggers a
// sync round that terminates immediately.
func (n *Node) maybeStartSync(from types.NodeID, b *types.Block) {
	if n.catchup.state != syncIdle || from == n.id || b.QC == nil {
		return
	}
	headView := n.forest.CommittedHead().View
	if b.QC.View <= headView+types.View(n.forest.KeepWindow()) {
		return
	}
	n.catchup.state = syncBlocks
	n.catchup.target = from
	n.catchup.epoch++
	n.catchup.lastHeight = n.forest.CommittedHeight()
	n.trace.OnSync(trace.EventSyncStart, from, n.catchup.lastHeight)
	n.sendSyncRequest()
	n.armSyncRetry()
	n.publishStatus()
}

// sendSyncRequest asks the current target for everything above our
// committed head.
func (n *Node) sendSyncRequest() {
	n.pipeline.SyncRequestsSent.Add(1)
	n.net.Send(n.catchup.target, types.SyncRequestMsg{From: n.forest.CommittedHeight() + 1})
}

// armSyncRetry schedules the stall check for the current phase.
func (n *Node) armSyncRetry() {
	epoch := n.catchup.epoch
	time.AfterFunc(n.syncRetryInterval(), func() {
		select {
		case n.events <- syncRetryEvent{epoch: epoch}:
		case <-n.stopCh:
		}
	})
}

// onSyncRetry fires on the stall timer. It first re-checks the
// episode's premise: once the committed head's view is back within a
// keep window of the live view, the shallow fetch path covers the
// remainder and catch-up ends — this also retires false-positive
// episodes started by timeout-churned view gaps, and episodes whose
// final "you are caught up" response was lost. Otherwise a phase that
// made no progress since the last check rotates away from its serving
// peer and re-issues its request.
func (n *Node) onSyncRetry(ev syncRetryEvent) {
	ep := &n.catchup
	if ep.state == syncIdle || ev.epoch != ep.epoch {
		return
	}
	headView := n.forest.CommittedHead().View
	if n.pm.CurView() <= headView+types.View(n.forest.KeepWindow()) {
		n.endSync()
		return
	}
	switch ep.state {
	case syncBlocks:
		h := n.forest.CommittedHeight()
		if h == ep.lastHeight {
			n.rotateSyncTarget()
			n.sendSyncRequest()
		}
		ep.lastHeight = h
	case syncManifests:
		if len(ep.manifests) == ep.manifestSeen {
			ep.manifestStalls++
			if ep.manifestStalls > manifestStallLimit {
				// No agreement is forming — possibly because the
				// floor that sent us here was forged and no snapshots
				// exist. Go back to streaming blocks from the next
				// peer; an honest floor will route us here again.
				ep.state = syncBlocks
				ep.epoch++
				ep.lastHeight = n.forest.CommittedHeight()
				ep.manifests = nil
				n.rotateSyncTarget()
				n.sendSyncRequest()
				n.armSyncRetry()
				return
			}
			n.requestManifests()
		} else {
			ep.manifestStalls = 0
		}
		ep.manifestSeen = len(ep.manifests)
	case syncChunks:
		if ep.nextChunk == ep.chunkSeen {
			ep.chunkStalls++
			if ep.chunkStalls > chunkStallLimit {
				// Every agreeing peer is quiet or has moved on to a
				// newer snapshot: renegotiate the manifest (which
				// arms its own retry under a fresh epoch).
				n.beginManifestPhase()
				return
			}
			n.rotateChunkSrc()
			n.requestChunk()
		} else {
			ep.chunkStalls = 0
		}
		ep.chunkSeen = ep.nextChunk
	}
	n.armSyncRetry()
}

// rotateSyncTarget moves to the next replica, skipping this one.
func (n *Node) rotateSyncTarget() {
	next := n.catchup.target%types.NodeID(n.cfg.N) + 1
	if next == n.id {
		next = next%types.NodeID(n.cfg.N) + 1
	}
	n.catchup.target = next
}

// endSync leaves catch-up mode; the live proposal/fetch path covers
// whatever remains (the residual gap is within the keep window). The
// epoch bump kills any stall timer still in flight.
func (n *Node) endSync() {
	n.catchup = syncEpisode{epoch: n.catchup.epoch + 1}
	n.trace.OnSync(trace.EventSyncEnd, 0, n.forest.CommittedHeight())
	n.publishStatus()
}

// onSyncRequest serves a ranged catch-up request from the persistent
// ledger, falling back to the forest for heights the ledger has not
// flushed yet (the apply stage appends asynchronously). The
// response is best-effort and contiguous: if neither source holds some
// height, the range is cut short and the requester simply asks again
// from wherever it lands. A request starting below the ledger's
// compacted floor cannot be served at all — the empty response then
// carries the floor, which is the requester's cue to fall back to
// snapshot transfer.
func (n *Node) onSyncRequest(from types.NodeID, m types.SyncRequestMsg) {
	if from == n.id {
		return
	}
	committed := n.forest.CommittedHeight()
	var floor uint64
	if led := n.opts.Ledger; led != nil {
		floor = led.Base() + 1
	}
	if m.From == 0 || m.From > committed {
		// Nothing to serve — answer with our head so a requester that
		// has caught up can conclude its episode.
		n.net.Send(from, types.SyncResponseMsg{From: m.From, Head: committed, Floor: floor})
		return
	}
	to := m.To
	if to == 0 || to > committed {
		to = committed
	}
	if to < m.From {
		return // inverted range: nothing to serve
	}
	if max := m.From + syncBatchSize - 1; to > max {
		to = max
	}
	blocks := make([]*types.Block, 0, to-m.From+1)
	h := m.From
	if led := n.opts.Ledger; led != nil {
		if lh := led.Height(); lh >= h && h > led.Base() {
			end := to
			if end > lh {
				end = lh
			}
			if bs, err := led.ReadRange(h, end); err == nil {
				for _, b := range bs {
					// Serve a ledger block only if it IS this run's
					// committed block at that height: a ledger file
					// carried over from an earlier deployment holds a
					// different chain, and handing it out would make
					// every requester burn a full batch verification
					// before rejecting us.
					if want, ok := n.forest.CommittedHash(h); !ok || want != b.ID() {
						break
					}
					blocks = append(blocks, b)
					h++
				}
			}
		}
	}
	for ; h <= to; h++ {
		hash, ok := n.forest.CommittedHash(h)
		if !ok {
			break
		}
		b, ok := n.forest.Block(hash)
		if !ok {
			break // compacted below the window and not yet in the ledger
		}
		if !b.CarriesPayload() {
			// A payload-stripped header — the block a snapshot install
			// planted at its height. Its transactions live inside the
			// snapshot state, not here; serving the header would hand
			// the requester a block it cannot execute.
			break
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		if floor > 1 && m.From < floor {
			// The requested prefix was compacted under a snapshot:
			// point the requester at the snapshot path.
			n.net.Send(from, types.SyncResponseMsg{From: m.From, Head: committed, Floor: floor})
		}
		return
	}
	n.pipeline.SyncBatchesServed.Add(1)
	n.net.Send(from, types.SyncResponseMsg{From: m.From, Blocks: blocks, Head: committed, Floor: floor})
}

// onSyncResponse verifies and applies one catch-up batch. The whole
// range is checked before any state changes: every block must extend
// the previous one by parent hash AND carry a valid quorum certificate
// for it, anchored at this replica's committed head. Unsolicited
// responses, responses from the wrong peer, mis-ranged responses, and
// tampered blocks are all rejected without touching forest or store.
// An empty response whose floor outruns our gap switches the episode
// to the snapshot path.
func (n *Node) onSyncResponse(from types.NodeID, m types.SyncResponseMsg) {
	if n.catchup.state != syncBlocks || from != n.catchup.target {
		n.pipeline.SyncRejected.Add(1)
		return
	}
	before := n.forest.CommittedHeight()
	expected := before + 1
	if m.From > expected {
		// A range starting above our next height cannot anchor at the
		// committed head — there is nothing to verify it against.
		n.pipeline.SyncRejected.Add(1)
		return
	}
	if len(m.Blocks) == 0 {
		if m.Head <= before {
			n.endSync()
			return
		}
		if m.Floor > expected {
			// The peer is ahead but its retained ledger prefix starts
			// past our gap: block-by-block catch-up cannot bridge it.
			n.beginSnapshotFetch()
		}
		return
	}
	if len(m.Blocks) > syncBatchSize {
		n.pipeline.SyncRejected.Add(1)
		return
	}
	// The committed head may have moved between request and response
	// (the post-heal backlog drains concurrently with the first sync
	// round); skip the part of the range we already hold and verify
	// the remainder anchored at the head we have now.
	skip := int(expected - m.From)
	if skip >= len(m.Blocks) {
		// Entirely stale — not hostile, just raced; the reply to our
		// next request will start where we are now.
		return
	}
	blocks := m.Blocks[skip:]
	if !n.verifySyncChain(blocks) {
		n.pipeline.SyncRejected.Add(1)
		// The target lied or is serving garbage; rotate away from it
		// rather than trusting its next reply.
		n.rotateSyncTarget()
		return
	}
	applyCount := len(blocks) - syncHoldback
	if applyCount <= 0 {
		// The gap is already within the holdback margin: the live
		// fetch path finishes from here.
		n.endSync()
		return
	}
	for i := 0; i < applyCount; i++ {
		b := blocks[i]
		if !n.forest.Contains(b.ID()) {
			attached, err := n.forest.Add(b)
			if err != nil || len(attached) == 0 {
				// Cannot happen for a verified contiguous range, but
				// never loop on a forest refusal.
				n.endSync()
				return
			}
			for _, ab := range attached {
				n.scrubPayload(ab)
				abID := ab.ID()
				if qc, ok := n.pendingQCs[abID]; ok {
					delete(n.pendingQCs, abID)
					n.handleQC(qc)
				}
			}
		}
		// The block's own certificate certifies its parent: ride it
		// through the normal path so the forest marks certification,
		// the protocol rules see the QC, and the pacemaker view
		// fast-forwards toward the live chain.
		n.handleQC(b.QC)
	}
	// The first held-back block's certificate covers the applied tip.
	n.handleQC(blocks[applyCount].QC)
	n.commit(blocks[applyCount-1])
	if gained := n.forest.CommittedHeight() - before; gained > 0 {
		n.pipeline.SyncBlocksApplied.Add(gained)
	}
	n.catchup.lastHeight = n.forest.CommittedHeight()
	if m.Head > n.catchup.lastHeight+syncHoldback {
		n.sendSyncRequest()
		return
	}
	n.endSync()
}

// verifySyncChain checks a response range as a certified chain
// anchored at the committed head: contiguous parent links, each
// certificate naming the predecessor, every certificate carrying a
// verified quorum of signatures, and every block actually CARRYING
// the payload its identity commits to. The last check matters because
// a block's ID covers the payload only through its digest: a stripped
// header (or a header with a substituted payload) has a perfectly
// valid certificate chain, and without the binding check a sync
// requester would commit and execute the wrong — possibly empty —
// transaction list, diverging state behind identical block hashes. A
// view-0 ("genesis") certificate is implicit-valid only for the real
// genesis block — anywhere else it is a forgery that skips signature
// checks.
func (n *Node) verifySyncChain(blocks []*types.Block) bool {
	genesisID := types.Genesis().ID()
	prevID := n.forest.CommittedHead().ID()
	quorum := n.cfg.Quorum()
	for _, b := range blocks {
		if b == nil || b.QC == nil || b.Parent != prevID || b.QC.BlockID != prevID {
			return false
		}
		if b.QC.IsGenesis() && prevID != genesisID {
			return false
		}
		if !b.CarriesPayload() {
			return false // a stripped header or a substituted payload
		}
		if err := crypto.VerifyQC(n.scheme, b.QC, quorum); err != nil {
			return false
		}
		prevID = b.ID()
	}
	return true
}

// beginSnapshotFetch switches the episode to the snapshot path. A
// replica without a snapshottable state machine cannot install one —
// it retires the episode and stays behind (the control knob for
// experiments that want the old O(chain) behaviour measurable). A
// replica with a ledger but no snapshot store refuses too: installing
// would force the ledger to drop its history with no durable
// replacement to restart from.
func (n *Node) beginSnapshotFetch() {
	if n.opts.State == nil || (n.opts.Ledger != nil && n.opts.Snapshots == nil) {
		n.endSync()
		return
	}
	n.beginManifestPhase()
}

// beginManifestPhase (re)starts manifest collection: ask every peer
// for its latest snapshot manifest and wait for f+1 agreement.
func (n *Node) beginManifestPhase() {
	ep := &n.catchup
	ep.state = syncManifests
	ep.epoch++
	ep.manifests = make(map[types.NodeID]*types.SnapshotManifestMsg, n.cfg.N)
	ep.manifestSeen = 0
	ep.manifestStalls = 0
	ep.chosen, ep.agree, ep.buf = nil, nil, nil
	ep.nextChunk, ep.chunkSeen, ep.chunkStalls = 0, 0, 0
	n.trace.OnSync(trace.EventSyncManifests, 0, 0)
	n.requestManifests()
	n.armSyncRetry()
	n.publishStatus()
}

// requestManifests polls every peer — including ones that already
// answered, whose refreshed manifests may be what finally lines f+1
// of them up on one snapshot.
func (n *Node) requestManifests() {
	for i := 1; i <= n.cfg.N; i++ {
		id := types.NodeID(i)
		if id == n.id {
			continue
		}
		n.net.Send(id, types.SnapshotRequestMsg{})
	}
}

// onSnapshotManifest records one peer's manifest and, once f+1 peers
// agree on the same snapshot, starts streaming chunks. A newer
// manifest from a peer that already answered replaces its old one —
// peers keep snapshotting while we negotiate, and holding every peer
// to its first answer could wedge the phase on a transient height
// skew forever. Manifests failing structural or certificate checks
// never count toward agreement — a forged height or digest needs f+1
// colluding replicas, which the fault model rules out.
func (n *Node) onSnapshotManifest(from types.NodeID, m types.SnapshotManifestMsg) {
	ep := &n.catchup
	if ep.state != syncManifests || from == n.id {
		return
	}
	if !n.validManifest(&m) {
		n.pipeline.SyncRejected.Add(1)
		return
	}
	ep.manifests[from] = &m
	if pick, agree := n.manifestQuorum(); pick != nil {
		n.beginChunkPhase(pick, agree)
	}
}

// validManifest checks one manifest's internal consistency and its
// certificate: the snapshot must sit above our committed head, the
// certificate must name the snapshot block and carry a verified
// quorum of signatures, and the declared sizes must be within what
// the transfer path will actually accept.
func (n *Node) validManifest(m *types.SnapshotManifestMsg) bool {
	if m.Block == nil || m.QC == nil || m.Height == 0 {
		return false
	}
	if m.Height <= n.forest.CommittedHeight() {
		return false
	}
	if m.QC.BlockID != m.Block.ID() || m.QC.IsGenesis() {
		return false
	}
	if m.ChunkSize == 0 || m.ChunkSize > snapshot.MaxChunkSize || m.TotalSize > snapshot.MaxStateSize {
		return false
	}
	if snapshot.ChunkCount(m.TotalSize, m.ChunkSize) != len(m.ChunkDigests) {
		return false
	}
	return crypto.VerifyQC(n.scheme, m.QC, n.cfg.Quorum()) == nil
}

// manifestQuorum looks for f+1 collected manifests agreeing on the
// whole transfer description — height, block, state digest, AND the
// declared sizes and chunk digest list. Covering the transfer
// parameters matters: the chosen manifest is an arbitrary member of
// the agreeing group, so any parameter outside the agreement key
// would be a single (possibly Byzantine) peer's word — a forged
// TotalSize alone could pre-commit gigabytes of buffer or smuggle an
// empty payload past the chunk stream. Among agreeing groups the
// highest height wins (less suffix to stream). It returns the
// manifest to stream and the peers vouching for it, or nil.
func (n *Node) manifestQuorum() (*types.SnapshotManifestMsg, []types.NodeID) {
	need := config.MaxFaults(n.cfg.N) + 1
	type key struct {
		height    uint64
		blockID   types.Hash
		digest    types.Hash
		totalSize uint64
		chunkSize uint32
		chunks    types.Hash
	}
	keyOf := func(m *types.SnapshotManifestMsg) key {
		h := sha256.New()
		for _, d := range m.ChunkDigests {
			h.Write(d[:])
		}
		var chunks types.Hash
		copy(chunks[:], h.Sum(nil))
		return key{m.Height, m.Block.ID(), m.StateDigest, m.TotalSize, m.ChunkSize, chunks}
	}
	groups := make(map[key][]types.NodeID)
	for from, m := range n.catchup.manifests {
		k := keyOf(m)
		groups[k] = append(groups[k], from)
	}
	var bestKey key
	var bestPeers []types.NodeID
	for k, peers := range groups {
		if len(peers) >= need && k.height > bestKey.height {
			bestKey, bestPeers = k, peers
		}
	}
	if bestPeers == nil {
		return nil, nil
	}
	return n.catchup.manifests[bestPeers[0]], bestPeers
}

// beginChunkPhase starts streaming the agreed snapshot, preferring
// the blocks-phase target as the serving peer when it is part of the
// agreement (its ledger suffix is what we will need next).
func (n *Node) beginChunkPhase(m *types.SnapshotManifestMsg, agree []types.NodeID) {
	ep := &n.catchup
	ep.state = syncChunks
	ep.epoch++
	ep.chosen = m
	ep.agree = agree
	ep.chunkSrc = agree[0]
	for _, id := range agree {
		if id == ep.target {
			ep.chunkSrc = id
			break
		}
	}
	// Pre-size the buffer only modestly: TotalSize is f+1-vouched by
	// now, but there is no reason to pre-commit a large state's whole
	// footprint before a single chunk verified.
	bufCap := m.TotalSize
	if bufCap > 8<<20 {
		bufCap = 8 << 20
	}
	ep.buf = make([]byte, 0, bufCap)
	ep.nextChunk, ep.chunkSeen, ep.chunkStalls = 0, 0, 0
	n.trace.OnSync(trace.EventSyncChunks, ep.chunkSrc, m.Height)
	if len(m.ChunkDigests) == 0 {
		// Empty state: nothing to stream — but the empty payload must
		// still hash to the agreed digest, exactly like a streamed
		// one (no install path skips the digest check).
		if snapshot.Digest(ep.buf) != m.StateDigest {
			n.pipeline.SyncRejected.Add(1)
			n.beginManifestPhase()
			return
		}
		n.installSnapshot()
		return
	}
	n.requestChunk()
	n.armSyncRetry()
	n.publishStatus()
}

// requestChunk asks the current chunk source for the next chunk.
func (n *Node) requestChunk() {
	n.net.Send(n.catchup.chunkSrc,
		types.SnapshotRequestMsg{Height: n.catchup.chosen.Height, Chunk: n.catchup.nextChunk})
}

// rotateChunkSrc moves to the next peer of the agreement set.
func (n *Node) rotateChunkSrc() {
	ep := &n.catchup
	for i, id := range ep.agree {
		if id == ep.chunkSrc {
			ep.chunkSrc = ep.agree[(i+1)%len(ep.agree)]
			return
		}
	}
	ep.chunkSrc = ep.agree[0]
}

// onSnapshotChunk verifies one streamed chunk against the manifest:
// exact expected length and a matching per-chunk digest. A bad chunk
// rotates the serving peer and re-requests the same index; the final
// assembled payload must additionally hash to the f+1-agreed state
// digest, so even a manifest with forged chunk digests cannot install
// a wrong state.
func (n *Node) onSnapshotChunk(from types.NodeID, m types.SnapshotChunkMsg) {
	ep := &n.catchup
	if ep.state != syncChunks || from != ep.chunkSrc {
		n.pipeline.SyncRejected.Add(1)
		return
	}
	man := ep.chosen
	if m.Height != man.Height || m.Chunk != ep.nextChunk {
		n.pipeline.SyncRejected.Add(1)
		return
	}
	want := man.TotalSize - uint64(len(ep.buf))
	if want > uint64(man.ChunkSize) {
		want = uint64(man.ChunkSize)
	}
	if uint64(len(m.Data)) != want || snapshot.Digest(m.Data) != man.ChunkDigests[m.Chunk] {
		n.pipeline.SyncRejected.Add(1)
		n.rotateChunkSrc()
		n.requestChunk()
		return
	}
	ep.buf = append(ep.buf, m.Data...)
	ep.nextChunk++
	if int(ep.nextChunk) < len(man.ChunkDigests) {
		n.requestChunk()
		return
	}
	if snapshot.Digest(ep.buf) != man.StateDigest {
		// Per-chunk digests were internally consistent but the whole
		// does not hash to the cross-checked state digest: the chunk
		// digest list itself was forged. Renegotiate from scratch.
		n.pipeline.SyncRejected.Add(1)
		n.beginManifestPhase()
		return
	}
	n.installSnapshot()
}

// installSnapshot adopts the verified snapshot: the forest and the
// protocol state jump to the snapshot block on the event loop, while
// the state-machine restore, the ledger re-base, and the local
// snapshot save ride the ordered apply stage — behind any block still
// executing, ahead of every suffix block committed after this point.
// The episode then drops back to the blocks phase for the suffix.
func (n *Node) installSnapshot() {
	ep := &n.catchup
	man := ep.chosen
	snap := &snapshot.Snapshot{
		Height:      man.Height,
		Block:       man.Block,
		QC:          man.QC,
		StateDigest: man.StateDigest,
		Payload:     ep.buf,
	}
	n.adoptSnapshot(man.Block, man.QC, man.Height, man.StateDigest)
	n.apply.enqueue(applyJob{install: snap})
	n.pipeline.SnapshotInstalls.Add(1)
	n.trace.OnSync(trace.EventSyncInstall, 0, man.Height)

	// Suffix: continue the blocks phase from the snapshot height,
	// served by the peer whose chunks we just verified.
	ep.state = syncBlocks
	ep.epoch++
	ep.target = ep.chunkSrc
	ep.lastHeight = n.forest.CommittedHeight()
	ep.manifests, ep.chosen, ep.agree, ep.buf = nil, nil, nil, nil
	n.sendSyncRequest()
	n.armSyncRetry()
	n.publishStatus()
}

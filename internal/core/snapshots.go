package core

// snapshots.go is the replica-local half of the snapshot subsystem:
// periodic capture on the commit path (with ledger prefix compaction),
// serving manifests and chunks to catch-up requesters, applying a
// verified install, and the restart bootstrap that replays the
// replica's own snapshot + ledger into forest and state machine
// before it joins — making restart cost O(gap), not O(chain).

import (
	"errors"
	"fmt"

	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// dueSnapshotHeight returns the snapshot boundary to capture within a
// commit batch spanning heights (first, last], or zero when none is
// due. Only the HIGHEST boundary in the batch counts: each snapshot
// supersedes the previous, and a deep-sync fast-forward batch can
// cross many interval boundaries — capturing every one would fsync
// the full state and rewrite the ledger once per interval of the gap
// for snapshots that are superseded within the same batch. For the
// same reason nothing is captured mid-catch-up at all; the first
// boundary after the episode ends picks the cadence back up.
func (n *Node) dueSnapshotHeight(first, last uint64) uint64 {
	iv := uint64(n.cfg.SnapshotInterval)
	if iv == 0 || n.opts.State == nil || n.opts.Snapshots == nil ||
		n.catchup.state != syncIdle {
		return 0
	}
	boundary := last - last%iv
	if boundary <= first {
		return 0
	}
	return boundary
}

// commitCert returns a quorum certificate for committed[i], the
// anchor a snapshot at that height carries. For all but the newest
// committed block the next block's embedded certificate is exactly
// that; for the newest, the forest's certification record (present
// for every commit-rule target) is. nil skips the capture — the next
// interval boundary tries again.
func (n *Node) commitCert(committed []*types.Block, i int) *types.QC {
	if i+1 < len(committed) {
		return committed[i+1].QC
	}
	if qc, ok := n.forest.QCOf(committed[i].ID()); ok {
		return qc
	}
	return nil
}

// captureSnapshot runs on the apply stage right after the block at height executed: it serializes the state
// machine, persists the snapshot, and compacts the ledger prefix the
// snapshot now covers. Compaction only follows a successful save — a
// prefix must never be dropped before its replacement is durable.
func (n *Node) captureSnapshot(b *types.Block, height uint64, qc *types.QC) {
	payload := n.opts.State.SnapshotState()
	snap := &snapshot.Snapshot{
		Height:      height,
		Block:       b.StripPayload(),
		QC:          qc,
		StateDigest: snapshot.Digest(payload),
		Payload:     payload,
	}
	if err := n.opts.Snapshots.Save(snap); err != nil {
		return
	}
	if n.opts.Ledger != nil {
		// Best-effort: a failed compaction only means the ledger
		// stays larger than it needs to be.
		_ = n.opts.Ledger.CompactTo(height)
	}
	n.noteSnapshot(height, snap.StateDigest)
}

// applyInstall is the apply-stage half of a snapshot install: restore
// the state machine from the verified payload, persist the snapshot
// durably, and only THEN re-base the ledger at the snapshot height
// (the local chain below it was never replayed here, so the old file
// is another history as far as appends are concerned). The ordering
// is the subsystem's one durability invariant — never drop history
// before its replacement is on disk: a crash between the save and
// the re-base merely leaves a stale ledger next to a fresh snapshot,
// which bootstrap resolves; the reverse window would leave neither.
func (n *Node) applyInstall(snap *snapshot.Snapshot) {
	if n.opts.State != nil {
		if err := n.opts.State.RestoreState(snap.Payload); err != nil {
			// The payload hashed to the f+1-agreed digest, so a parse
			// failure is local corruption or version skew — the state
			// machine is now behind the forest, which is as loud a
			// divergence as a safety violation.
			n.warn(fmt.Errorf("snapshot install at height %d: %w", snap.Height, err))
			return
		}
	}
	if n.opts.Ledger != nil {
		// beginSnapshotFetch refuses the snapshot path for
		// ledger-with-no-store configurations, so a ledger here
		// always has a snapshot store beside it — and the re-base
		// happens only once the replacement is durably saved.
		if n.opts.Snapshots == nil {
			return
		}
		if err := n.opts.Snapshots.Save(snap); err != nil {
			// Without a durable replacement the old ledger must stay.
			return
		}
		if err := n.opts.Ledger.ResetTo(snap.Height); err != nil {
			// A stale ledger under a fresh snapshot is the crash
			// window bootstrap already resolves, but a re-base that
			// fails while the process lives deserves a page: appends
			// are now rejected until the next restart completes it.
			n.warn(fmt.Errorf("snapshot install at height %d: ledger re-base: %w", snap.Height, err))
		}
		return
	}
	if n.opts.Snapshots != nil {
		_ = n.opts.Snapshots.Save(snap)
	}
}

// adoptSnapshot jumps the consensus surfaces onto a verified snapshot
// — forest head, committed-hash index (zero-padded below the install
// height: that history never passed through this replica), protocol
// rules, pacemaker view, and the status surface. It is the shared
// half of a peer install and a restart restore; the state machine and
// persistence halves differ per caller.
func (n *Node) adoptSnapshot(b *types.Block, qc *types.QC, height uint64, digest types.Hash) {
	n.forest.ResetTo(b, qc, height)
	n.statusMu.Lock()
	for uint64(len(n.committedHashes)) < height {
		n.committedHashes = append(n.committedHashes, types.ZeroHash)
	}
	n.committedHashes[height-1] = b.ID()
	n.statusMu.Unlock()
	n.rules.UpdateState(qc)
	n.pm.AdvanceTo(qc.View + 1)
	n.noteSnapshot(height, digest)
}

// onSnapshotRequest serves the snapshot-transfer fetch path from the
// local snapshot store: the latest manifest for a zero-height
// request, one chunk otherwise. Requests for a height other than the
// retained snapshot go unanswered — the requester's stall rotation
// renegotiates against whatever the cluster serves now.
func (n *Node) onSnapshotRequest(from types.NodeID, m types.SnapshotRequestMsg) {
	if from == n.id || n.opts.Snapshots == nil {
		return
	}
	snap, digests, ok := n.opts.Snapshots.Latest()
	if !ok {
		return
	}
	if m.Height == 0 {
		n.pipeline.SnapshotsServed.Add(1)
		n.net.Send(from, types.SnapshotManifestMsg{
			Height:       snap.Height,
			Block:        snap.Block,
			QC:           snap.QC,
			StateDigest:  snap.StateDigest,
			TotalSize:    uint64(len(snap.Payload)),
			ChunkSize:    snapshot.ChunkSize,
			ChunkDigests: digests,
		})
		return
	}
	if m.Height != snap.Height {
		return
	}
	data := snapshot.Chunk(snap.Payload, snapshot.ChunkSize, m.Chunk)
	if len(data) == 0 {
		return
	}
	n.net.Send(from, types.SnapshotChunkMsg{Height: m.Height, Chunk: m.Chunk, Data: data})
}

// errReplayHalt stops a ledger replay early without reporting
// corruption — the walked prefix stays installed.
var errReplayHalt = errors.New("core: replay halted")

// bootstrap rebuilds the replica from its own disk before it joins:
// restore the latest local snapshot (if any) into state machine and
// forest, then replay the ledger suffix above it block by block
// through forest, rules, and execution — commit cost O(gap), not
// O(chain). Only the tail the replica missed while down still travels
// over the network (live fetch for shallow tails, ranged sync for
// deep ones). Certificates replayed from the local ledger are not
// re-verified: the file is this replica's own committed chain,
// integrity-checked record by record at open.
//
// The FULL ledger is re-committed, tip included. Every persisted
// record was committed before the crash, and the safety WAL closes
// the amnesia window that used to make this unsafe: votes and locks
// now survive restarts, so no quorum can re-certify a conflicting
// block at the old tip's views — the holdback that once truncated the
// top of the replayed chain is gone, and a restarted replica recovers
// to its exact pre-crash committed height.
func (n *Node) bootstrap() {
	led := n.opts.Ledger
	var floor uint64
	if n.opts.Snapshots != nil && n.opts.State != nil {
		if snap, _, ok := n.opts.Snapshots.Latest(); ok {
			if err := n.opts.State.RestoreState(snap.Payload); err == nil {
				n.adoptSnapshot(snap.Block, snap.QC, snap.Height, snap.StateDigest)
				floor = snap.Height
			}
		}
	}
	if led.Base() > floor {
		// The ledger's floor sits above what the snapshot restored (a
		// missing or corrupt snapshot file under a compacted ledger):
		// the retained records cannot attach to anything. Join with
		// what the snapshot gave us and let state sync cover the rest.
		// (A floor above the base is fine — the replay below simply
		// skips the heights the snapshot already covers.)
		n.publishStatus()
		return
	}
	if led.Height() <= floor {
		// Every retained record is covered by the snapshot — the
		// footprint of a crash between an install's durable save and
		// its ledger re-base. Complete the re-base now so appends
		// continue from the snapshot height.
		if led.Height() < floor || led.Base() < floor {
			if err := led.ResetTo(floor); err != nil {
				n.warn(fmt.Errorf("bootstrap: ledger re-base to %d: %w", floor, err))
			}
		}
		n.publishStatus()
		return
	}
	var replayed uint64
	var maxQC *types.QC
	replayErr := led.ReplayCertified(func(b *types.Block, h uint64, selfQC *types.QC) error {
		if h <= floor {
			return nil
		}
		attached, err := n.forest.Add(b)
		if err != nil || len(attached) == 0 {
			return errReplayHalt
		}
		// The record's embedded certificate certifies the parent; its
		// SelfQC certifies the block itself. Feeding both through the
		// rules leaves highQC at the replayed tip, so this replica
		// can lead views immediately after rejoining.
		n.forest.Certify(b.QC)
		n.rules.UpdateState(b.QC)
		if maxQC == nil || b.QC.View > maxQC.View {
			maxQC = b.QC
		}
		if selfQC != nil {
			n.forest.Certify(selfQC)
			n.rules.UpdateState(selfQC)
			if selfQC.View > maxQC.View {
				maxQC = selfQC
			}
		}
		if _, err := n.forest.Commit(b.ID()); err != nil {
			return errReplayHalt
		}
		if n.opts.Execute != nil {
			n.opts.Execute(b.Payload)
		}
		n.statusMu.Lock()
		n.committedHashes = append(n.committedHashes, b.ID())
		n.statusMu.Unlock()
		replayed++
		return nil
	})
	if replayErr != nil {
		// A halted replay (a record that would not attach — not the
		// clean tail truncation Open already repaired) leaves records
		// above the committed point. Roll the file back so live
		// appends continue from the replayed head; a failed truncate
		// would let the next replay re-apply those records against
		// state that has since diverged, so it must not pass silently.
		if err := led.TruncateTo(n.forest.CommittedHeight()); err != nil {
			n.warn(fmt.Errorf("bootstrap: truncate after halted replay: %w", err))
		}
	}
	if replayed > 0 || maxQC != nil {
		n.pipeline.ReplayedBlocks.Add(replayed)
		if maxQC != nil {
			// Views advance at least as fast as heights: rejoin at
			// the view after the freshest replayed certificate.
			n.pm.AdvanceTo(maxQC.View + 1)
		}
	}
	n.publishStatus()
}

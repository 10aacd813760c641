package core

// safetywal.go closes the amnesia-equivocation window: the paper's
// voting rule updates lvView "right after a vote is sent", but state
// that lives only in memory is forgotten by a crash — a SIGKILLed
// replica could rejoin and vote twice in the same view, which is
// Byzantine equivocation produced by a crash fault. persistSafety
// syncs the durable slice of the rules' state (plus the pacemaker
// view and the timeout-signing high-water mark) to the WAL before any
// vote or timeout message leaves the node; restoreSafety replays it
// into the rules and pacemaker on Start, after ledger replay.

import (
	"fmt"
	"time"

	"github.com/bamboo-bft/bamboo/internal/safety"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// safetyStateFromRecord lifts a WAL record back into the protocol's
// durable-state shape.
func safetyStateFromRecord(rec *wal.Record) safety.DurableState {
	return safety.DurableState{
		LastVoted: rec.LastVoted,
		Preferred: rec.Preferred,
		HighQC:    rec.HighQC,
	}
}

// uncommittedSuffix returns the certified-but-uncommitted block path
// from just above the committed tip up to (and including) highQC's
// block, ascending by height. These blocks exist nowhere durable —
// ledgers only hold commits — yet the persisted lock points at them:
// after a whole-cluster crash the record's views alone would leave
// every replica refusing to vote for any proposal the survivors can
// actually build (their freshest extendable certificate sits below
// the lock), a permanent deadlock. Persisting the suffix lets restore
// re-attach it to the replayed chain, so the restored highQC is
// extendable and the lock satisfiable. nil when the path does not
// reach back to the committed tip (the highQC's block may be known
// only by certificate).
func (n *Node) uncommittedSuffix(qc *types.QC) []*types.Block {
	if qc == nil || qc.IsGenesis() {
		return nil
	}
	committed := n.forest.CommittedHeight()
	var down []*types.Block
	for id := qc.BlockID; ; {
		h, ok := n.forest.HeightOf(id)
		if !ok {
			return nil
		}
		if h <= committed {
			break
		}
		b, ok := n.forest.Block(id)
		if !ok {
			return nil
		}
		down = append(down, b)
		id = b.Parent
	}
	for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
		down[i], down[j] = down[j], down[i]
	}
	return down
}

// persistSafety makes the replica's current safety state durable. It
// returns false when the append failed, in which case the caller MUST
// NOT send the message the record was meant to cover: a silent replica
// is merely slow, an equivocating one is faulty.
func (n *Node) persistSafety() bool {
	w := n.opts.WAL
	if w == nil {
		return true
	}
	ds := n.rules.DurableState()
	start := time.Now()
	err := w.Append(wal.Record{
		CurView:     n.pm.CurView(),
		LastVoted:   ds.LastVoted,
		Preferred:   ds.Preferred,
		LastTimeout: n.lastTimeoutView,
		HighQC:      ds.HighQC,
		Suffix:      n.uncommittedSuffix(ds.HighQC),
	})
	n.pipeline.WALSyncWait.Record(time.Since(start))
	n.trace.OnWALSync(n.pm.CurView(), time.Since(start))
	if err != nil {
		// A replica that cannot persist its vote state can no longer
		// promise not to equivocate across a crash — as loud as a
		// safety violation, and the vote is withheld below.
		n.warn(fmt.Errorf("safety wal: %w", err))
		return false
	}
	return true
}

// restoreSafety merges the persisted safety state back in on Start.
// It runs after bootstrap's ledger replay, and the merge is monotone
// (views only move up, certificates only adopted if fresher), so the
// two recovery sources compose in either order. The persisted highQC
// is normally ahead of the replayed chain — a vote left the node, the
// certificate formed, and the crash hit before the commit persisted —
// which is exactly what the record's block suffix is for: re-attach
// the certified-but-uncommitted path and the certificate is usable
// again. When the suffix cannot re-attach (a record older than the
// ledger, a lost ledger tail), the certificate is dropped and the
// views alone carry the safety guarantee; the live chain re-delivers
// the freshest certificate within a view.
func (n *Node) restoreSafety() {
	w := n.opts.WAL
	if w == nil {
		return
	}
	rec := w.Latest()
	if rec == nil {
		return
	}
	ds := safetyStateFromRecord(rec)
	// Re-attach the persisted certified-but-uncommitted suffix onto the
	// replayed chain before adopting the certificate that points at its
	// tip. The blocks come from this replica's own WAL — the same trust
	// as ledger replay, integrity-checked frame by frame at Open — so
	// their signatures are not re-verified. Ascending order attaches
	// each block to its already-present parent; duplicates and stale
	// entries (the replay got there first) fall out of forest.Add.
	for _, b := range rec.Suffix {
		if b == nil || b.QC == nil {
			continue
		}
		if _, err := n.forest.Add(b); err != nil && !n.forest.Contains(b.ID()) {
			continue
		}
		// The embedded certificate certifies the parent; feeding it
		// through the rules rebuilds highQC and the lock exactly as the
		// live path would have.
		n.forest.Certify(b.QC)
		n.rules.UpdateState(b.QC)
	}
	if ds.HighQC != nil && !ds.HighQC.IsGenesis() {
		if n.forest.Contains(ds.HighQC.BlockID) {
			n.forest.Certify(ds.HighQC)
			n.rules.UpdateState(ds.HighQC)
		} else {
			ds.HighQC = nil
		}
	}
	n.rules.Restore(ds)
	if rec.LastTimeout > n.lastTimeoutView {
		n.lastTimeoutView = rec.LastTimeout
	}
	// Rejoin at the persisted view: the replica's pre-crash signatures
	// cover every view below it, so it must never vote there again —
	// and AdvanceTo works before the pacemaker starts.
	n.pm.AdvanceTo(rec.CurView)
	n.publishStatus()
}

package core

import (
	"time"

	"github.com/bamboo-bft/bamboo/internal/attack"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/forest"
	"github.com/bamboo-bft/bamboo/internal/mempool"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// pendingQCLimit bounds the buffered-certificate map.
const pendingQCLimit = 1024

// echoSeenLimit bounds Streamlet's echo dedup cache.
const echoSeenLimit = 1 << 13

// propose builds, signs, and disseminates this view's proposal.
// Proposing continues even mid-catch-up: a stale-view proposal is
// rejected by every honest voter for free, while suppressing the
// replica's leader slots would burn a view timeout per rotation and
// measurably slow the whole cluster during a long sync episode.
func (n *Node) propose(view types.View, tc *types.TC) {
	if view != n.pm.CurView() || n.proposedInView >= view {
		return
	}
	payload := n.takePayload()
	block := n.rules.Propose(view, payload)
	if block == nil {
		// Silence strategy: withhold the proposal but keep the
		// transactions for a later view.
		n.returnPayload(payload)
		return
	}
	n.proposedInView = view
	sig, err := n.scheme.Sign(n.id, types.SigningDigest(block.View, block.ID()))
	if err != nil {
		n.returnPayload(payload)
		return
	}
	block.Sig = sig
	n.trace.OnProposed(block.ID(), view, n.id, len(block.Payload))
	msg := types.ProposalMsg{Block: block, TC: tc}

	if eq, ok := n.rules.(attack.Equivocator); ok {
		if alt := eq.ProposeAlt(view, payload); alt != nil {
			if altSig, err := n.scheme.Sign(n.id, types.SigningDigest(alt.View, alt.ID())); err == nil {
				alt.Sig = altSig
				n.equivocast(msg, types.ProposalMsg{Block: alt, TC: tc})
				n.onProposal(n.id, msg, true)
				return
			}
		}
	}
	n.net.Broadcast(msg)
	n.onProposal(n.id, msg, true)
}

// equivocast sends msgA to the lower half of the replicas and msgB to
// the upper half.
func (n *Node) equivocast(msgA, msgB types.ProposalMsg) {
	half := types.NodeID(n.cfg.N / 2)
	for id := types.NodeID(1); id <= types.NodeID(n.cfg.N); id++ {
		if id == n.id {
			continue
		}
		if id <= half {
			n.net.Send(id, msgA)
		} else {
			n.net.Send(id, msgB)
		}
	}
}

// takePayload draws the next batch from the client path.
func (n *Node) takePayload() []types.Transaction {
	if n.policy.LightweightPool {
		k := n.cfg.BlockSize
		if k > len(n.lightPool) {
			k = len(n.lightPool)
		}
		batch := n.lightPool[:k]
		n.lightPool = n.lightPool[k:]
		return batch
	}
	return n.pool.Batch(n.cfg.BlockSize)
}

// returnPayload puts an unused batch back at the front of the queue.
func (n *Node) returnPayload(payload []types.Transaction) {
	if len(payload) == 0 {
		return
	}
	if n.policy.LightweightPool {
		// Never append into the payload slice: it may share a
		// backing array with a later block's payload (blocks travel
		// by pointer in-process), and an in-place prepend would
		// corrupt that block under every other replica.
		combined := make([]types.Transaction, 0, len(payload)+len(n.lightPool))
		combined = append(combined, payload...)
		combined = append(combined, n.lightPool...)
		n.lightPool = combined
		return
	}
	n.pool.Requeue(payload)
}

// onProposal handles a block proposal (or a fetched ancestor).
// verified means the signatures need no check: this replica produced
// the message.
func (n *Node) onProposal(from types.NodeID, m types.ProposalMsg, verified bool) {
	b := m.Block
	if b == nil || b.QC == nil {
		return
	}
	id := b.ID()
	if n.forest.Contains(id) {
		// Seen already (echo duplicates land here); a TC may still
		// be news.
		if m.TC != nil && from != n.id {
			n.onTC(m.TC, !verified)
		}
		return
	}
	// Authenticate: right leader, valid proposer signature, valid
	// embedded certificate.
	if b.Proposer != n.elect.Leader(b.View) {
		return
	}
	if from != n.id {
		// The span's receive stamp is arrival, before verification —
		// the verify stage starts here.
		n.trace.OnReceived(id, b.View, b.Proposer, len(b.Payload))
	}
	if !verified {
		if err := crypto.VerifyProposal(n.scheme, b, n.cfg.Quorum()); err != nil {
			return
		}
		// The signed ID covers the payload only through its digest, so
		// the block must carry exactly the payload that digest commits
		// to — or a Byzantine proposer could get one signed ID
		// committed with divergent payloads on different replicas.
		if !b.CarriesPayload() {
			return
		}
	}
	if n.policy.EchoMessages && from != n.id {
		if key := (echoKey{id: id}); !n.echoed(key) {
			n.rememberEcho(key)
			n.net.Broadcast(m)
		}
	}
	if m.TC != nil && from != n.id {
		n.onTC(m.TC, !verified)
	}
	// Authenticated: the span's verify stage ends here.
	n.trace.OnVerified(id)

	attached, err := n.forest.Add(b)
	switch err {
	case nil:
	case forest.ErrDuplicate, forest.ErrStale:
		return
	default:
		return
	}
	if len(attached) == 0 {
		// Orphan: buffered inside the forest; ask the sender for
		// the missing ancestor and remember the certificate. When
		// the orphan's certificate shows a gap deeper than the keep
		// window, the fetch walk is a dead-end (the ancestors are
		// compacted everywhere) — switch to ledger-backed state sync.
		n.bufferQC(b.QC)
		if from != n.id {
			n.net.Send(from, types.FetchMsg{BlockID: b.Parent})
			n.maybeStartSync(from, b)
		}
		return
	}
	for _, ab := range attached {
		// Scrub the block's transactions from the local pool before
		// any chance of proposing: with client fan-out, several
		// replicas hold the same transaction, and whoever proposes
		// next must not re-batch what this block already carries.
		n.scrubPayload(ab)
		abID := ab.ID()
		if qc, ok := n.pendingQCs[abID]; ok {
			delete(n.pendingQCs, abID)
			n.handleQC(qc)
		}
		n.handleQC(ab.QC)
		if ab == b {
			n.maybeVote(b, m.TC)
		}
	}
}

// scrubPayload drops another proposer's queued duplicates.
func (n *Node) scrubPayload(b *types.Block) {
	if b.Proposer == n.id || n.policy.LightweightPool ||
		len(b.Payload) == 0 || n.pool.Len() == 0 {
		return
	}
	ids := make([]types.TxID, len(b.Payload))
	for i := range b.Payload {
		ids[i] = b.Payload[i].ID
	}
	n.pool.Remove(ids)
}

// maybeVote applies the protocol's voting rule and routes the vote.
// A replica votes for proposals of its current view or one view ahead:
// the lookahead is inherent to chained pipelining — the proposer of
// view v holds QC(v−1) before anyone else, so honest voters are
// legitimately one view behind. (It is also what lets the forking
// attacker's old-parent proposal gather votes, exactly as in the
// paper's Figure 5; without lookahead the attack degenerates into
// silence.) More than one view ahead is refused, so a Byzantine
// proposer cannot drag lastVoted into the far future and starve the
// intervening views.
func (n *Node) maybeVote(b *types.Block, tc *types.TC) {
	cur := n.pm.CurView()
	if b.View < cur || b.View > cur+1 {
		return
	}
	if !n.rules.VoteRule(b, tc) {
		return
	}
	// The voting rule just advanced lvView; sync it (and the rest of
	// the durable safety state) to the WAL before the vote exists
	// anywhere outside this process. A replica whose vote can be
	// counted by a peer but forgotten by its own restart is one crash
	// away from equivocating.
	if !n.persistSafety() {
		return
	}
	// A vote is this replica accepting the block onto its chain:
	// the event the chain-growth-rate denominator counts
	// (Section IV-B). Blocks the voting rule rejects never "append"
	// from this replica's point of view.
	n.tracker.Added.Add(1)
	id := b.ID()
	sig, err := n.scheme.Sign(n.id, types.SigningDigest(b.View, id))
	if err != nil {
		return
	}
	n.trace.OnVoted(id)
	vote := &types.Vote{View: b.View, BlockID: id, Voter: n.id, Sig: sig}
	msg := types.VoteMsg{Vote: vote}
	if n.policy.BroadcastVote {
		n.net.Broadcast(msg)
		n.onVote(vote, true)
		return
	}
	next := n.elect.Leader(b.View + 1)
	if next == n.id {
		n.onVote(vote, true)
		return
	}
	n.net.Send(next, msg)
}

// onVote aggregates a vote; a completed quorum forms a QC. verified
// means the vote is this replica's own.
func (n *Node) onVote(v *types.Vote, verified bool) {
	if v == nil {
		return
	}
	cur := n.pm.CurView()
	if v.View+4 < cur {
		return // too old to ever matter
	}
	// Echoing protocols receive each vote up to n times. The exact
	// (voter, view, block) key of a vote already checked, counted and
	// echoed ends each later copy before its signature check.
	echo := n.policy.EchoMessages && v.Voter != n.id
	var key echoKey
	if echo {
		key = echoKey{id: v.BlockID, view: v.View, voter: v.Voter}
		if n.echoed(key) {
			return
		}
	}
	if !verified {
		if err := n.scheme.Verify(v.Voter, types.SigningDigest(v.View, v.BlockID), v.Sig); err != nil {
			return
		}
	}
	if echo {
		n.rememberEcho(key)
		n.net.Broadcast(types.VoteMsg{Vote: v})
	}
	if qc, formed := n.votes.Add(v); formed {
		n.handleQC(qc)
	}
}

// handleQC ingests a (verified or locally formed) certificate: certify
// the block in the forest, let the protocol update its state, check
// the commit rule, and ride the QC into the next view.
func (n *Node) handleQC(qc *types.QC) {
	if qc == nil {
		return
	}
	if n.forest.Contains(qc.BlockID) {
		n.forest.Certify(qc)
	} else if !qc.IsGenesis() {
		n.bufferQC(qc)
	}
	if !qc.IsGenesis() {
		n.trace.OnQCFormed(qc.BlockID)
	}
	n.rules.UpdateState(qc)
	if target := n.rules.CommitRule(qc); target != nil {
		n.commit(target)
	}
	if n.pm.AdvanceTo(qc.View + 1) {
		n.onNewView(nil)
	}
}

// bufferQC remembers the freshest certificate for a missing block.
func (n *Node) bufferQC(qc *types.QC) {
	if qc == nil || qc.IsGenesis() {
		return
	}
	if old, ok := n.pendingQCs[qc.BlockID]; ok && old.View >= qc.View {
		return
	}
	if len(n.pendingQCs) >= pendingQCLimit {
		cur := n.pm.CurView()
		for h, pqc := range n.pendingQCs {
			if pqc.View+16 < cur {
				delete(n.pendingQCs, h)
			}
		}
	}
	n.pendingQCs[qc.BlockID] = qc
}

// commit finalizes target and its prefix, hands each committed block
// to the ordered apply stage (execution, ledger, snapshot capture),
// replies to owned clients, and recycles forked transactions. A reply
// therefore means committed, not yet executed or persisted locally.
func (n *Node) commit(target *types.Block) {
	res, err := n.forest.Commit(target.ID())
	if err != nil {
		if err == forest.ErrSafetyViolation {
			n.warn(err)
		}
		return
	}
	if len(res.Committed) == 0 && len(res.Forked) == 0 {
		return
	}
	now := time.Now()
	cur := n.pm.CurView()
	n.statusMu.Lock()
	for _, cb := range res.Committed {
		n.committedHashes = append(n.committedHashes, cb.ID())
	}
	n.statusMu.Unlock()
	height := n.forest.CommittedHeight() - uint64(len(res.Committed))
	// At most one state snapshot per commit batch: the highest due
	// interval boundary (earlier ones would be superseded within the
	// same batch).
	snapHeight := n.dueSnapshotHeight(height, n.forest.CommittedHeight())
	for i, cb := range res.Committed {
		height++
		n.tracker.OnBlockCommitted(cb.Proposer, cb.View, cur, len(cb.Payload))
		n.trace.OnCommitted(cb.ID(), height, len(cb.Payload))
		// Every committed block has a certificate in hand (the next
		// block's embedded QC, or the forest's certification record);
		// it rides to the ledger record — restart replay needs it to
		// extend the replayed tip — and anchors the state snapshot
		// the apply stage captures on interval boundaries.
		selfQC := n.commitCert(res.Committed, i)
		n.apply.enqueue(applyJob{block: cb, height: height, committedAt: now,
			selfQC: selfQC, snapshot: height == snapHeight && selfQC != nil})
		for _, fn := range n.commitListeners {
			fn(cb.View, cb.ID(), cb.Payload)
		}
		replied := false
		for i := range cb.Payload {
			txID := cb.Payload[i].ID
			if client, ok := n.owned[txID]; ok {
				delete(n.owned, txID)
				// A transaction this replica submitted itself (Submit,
				// the HTTP API's path) is answered by the commit
				// listeners above; a ReplyMsg to self would only cost a
				// loopback frame on TCP and be dropped by route.
				if client != n.id {
					n.net.Send(client, types.ReplyMsg{
						TxID:    txID,
						View:    cb.View,
						BlockID: cb.ID(),
					})
				}
				replied = true
			}
		}
		if replied {
			n.trace.OnReplied(cb.ID())
		}
	}
	for _, fb := range res.Forked {
		if fb.Proposer == n.id && len(fb.Payload) > 0 {
			n.returnPayload(fb.Payload)
		}
	}
	n.publishStatus()
}

// onLocalTimeout fires when the view timer expires: broadcast a signed
// timeout carrying the freshest QC (the pacemaker of Section III-B).
func (n *Node) onLocalTimeout(view types.View) {
	if view != n.pm.CurView() {
		return
	}
	n.broadcastTimeout(view)
	n.notePendingSets()
}

// broadcastTimeout signs and disseminates ⟨TIMEOUT, view⟩.
func (n *Node) broadcastTimeout(view types.View) {
	sig, err := n.scheme.Sign(n.id, types.TimeoutDigest(view))
	if err != nil {
		return
	}
	if view > n.lastTimeoutView {
		n.lastTimeoutView = view
	}
	// Same discipline as votes: the timeout signature must not leave
	// the node before the view it covers is durable, or a restarted
	// replica could sign a second, conflicting timeout share for it.
	if !n.persistSafety() {
		return
	}
	n.trace.OnTimeout(view)
	t := &types.Timeout{View: view, Voter: n.id, HighQC: n.rules.HighQC(), Sig: sig}
	n.net.Broadcast(types.TimeoutMsg{Timeout: t})
	n.onTimeoutMsg(t, true)
}

// onTimeoutMsg aggregates a timeout; a completed quorum forms a TC
// that is forwarded to the next leader. verified means the timeout is
// this replica's own, so neither its signature nor its carried QC
// needs a check.
func (n *Node) onTimeoutMsg(t *types.Timeout, verified bool) {
	if t == nil {
		return
	}
	if !verified {
		if err := n.scheme.Verify(t.Voter, types.TimeoutDigest(t.View), t.Sig); err != nil {
			return
		}
	}
	if t.Voter != n.id && t.HighQC != nil && !t.HighQC.IsGenesis() {
		// Adopt the carried QC even when the timeout itself is
		// stale: a non-responsive leader waiting out Δ uses these
		// to learn the freshest certified block.
		if verified {
			n.handleQC(t.HighQC)
		} else if err := crypto.VerifyQC(n.scheme, t.HighQC, n.cfg.Quorum()); err == nil {
			n.handleQC(t.HighQC)
		}
	}
	tc, formed := n.pm.OnTimeoutMsg(t)
	if !formed {
		// f+1 join rule (Bracha-style amplification): if f+1
		// distinct replicas are timing out of a view ahead of the
		// highest one we signed, at least one is honest — join
		// them so staggered replicas converge on a common timeout
		// view and the TC can complete.
		if t.Voter != n.id && t.View > n.lastTimeoutView &&
			n.pm.TimeoutCount(t.View) > config.MaxFaults(n.cfg.N) {
			n.broadcastTimeout(t.View)
		}
		return
	}
	next := n.elect.Leader(tc.View + 1)
	if next != n.id {
		n.net.Send(next, types.TCMsg{TC: tc})
	}
	n.onTC(tc, false)
}

// onTC ingests a timeout certificate, advancing the view.
func (n *Node) onTC(tc *types.TC, needVerify bool) {
	if tc == nil {
		return
	}
	if needVerify {
		if err := crypto.VerifyTC(n.scheme, tc, n.cfg.Quorum()); err != nil {
			return
		}
		if tc.HighQC != nil && !tc.HighQC.IsGenesis() {
			if err := crypto.VerifyQC(n.scheme, tc.HighQC, n.cfg.Quorum()); err != nil {
				return
			}
		}
	}
	if tc.HighQC != nil {
		n.handleQC(tc.HighQC)
	}
	if n.pm.AdvanceTo(tc.View + 1) {
		n.onNewView(tc)
	}
}

// onNewView runs once per view entry: housekeeping plus, when this
// replica leads the view, proposing — immediately in the responsive
// mode, after the maximum network delay otherwise.
func (n *Node) onNewView(tc *types.TC) {
	view := n.pm.CurView()
	n.tracker.Views.Add(1)
	n.trace.OnViewEntered(view, n.elect.Leader(view))
	if view > 4 {
		n.votes.Prune(view - 4)
	}
	n.notePendingSets()
	n.publishStatus()
	if n.elect.Leader(view) != n.id {
		return
	}
	if tc != nil && !n.cfg.Responsive && n.cfg.MaxNetworkDelay > 0 {
		// Non-responsive view change: wait Δ collecting stray
		// timeout messages (and their high QCs) before proposing.
		time.AfterFunc(n.cfg.MaxNetworkDelay, func() {
			select {
			case n.events <- proposeEvent{view: view, tc: tc}:
			case <-n.stopCh:
			}
		})
		return
	}
	n.propose(view, tc)
}

// onRequest admits a client transaction into the replica's pool.
func (n *Node) onRequest(from types.NodeID, tx types.Transaction) {
	if n.policy.LightweightPool {
		if len(n.lightPool) >= 4*n.cfg.MemSize {
			n.lightRejections.Add(1)
			n.rejectTx(from, tx.ID)
			return
		}
		n.lightPool = append(n.lightPool, tx)
		n.owned[tx.ID] = from
		return
	}
	if err := n.pool.Add(tx); err != nil {
		if err == mempool.ErrFull {
			n.rejectTx(from, tx.ID)
		}
		return
	}
	n.owned[tx.ID] = from
}

// rejectTx delivers an admission rejection to whoever submitted the
// transaction: the registered reject listeners for this node's own
// submissions (the HTTP API turns them into 429s), a rejected ReplyMsg
// over the network for remote client endpoints.
func (n *Node) rejectTx(from types.NodeID, id types.TxID) {
	if from == n.id {
		for _, fn := range n.rejectListeners {
			fn(id)
		}
		return
	}
	n.net.Send(from, types.ReplyMsg{TxID: id, Rejected: true})
}

// onFetch serves a missing-ancestor request from the local forest.
func (n *Node) onFetch(from types.NodeID, m types.FetchMsg) {
	if b, ok := n.forest.Block(m.BlockID); ok {
		n.net.Send(from, types.ProposalMsg{Block: b})
	}
}

// echoKey names one echoed message exactly: a proposal by its block
// ID alone, a vote by its block ID, view and voter. Replica IDs start
// at 1, so a vote's key never equals a proposal's.
type echoKey struct {
	id    types.Hash
	view  types.View
	voter types.NodeID
}

// echoed reports whether the message is in the echo cache.
func (n *Node) echoed(key echoKey) bool {
	_, seen := n.echoSeen[key]
	return seen
}

// rememberEcho inserts into the bounded echo cache.
func (n *Node) rememberEcho(key echoKey) {
	if len(n.echoSeen) >= echoSeenLimit {
		n.echoSeen = make(map[echoKey]struct{}, echoSeenLimit)
	}
	n.echoSeen[key] = struct{}{}
}

package types

// Message kinds exchanged between replicas and between clients and
// replicas. The network layer carries them as interface values; the
// codec registers the concrete types for wire encoding.

// ProposalMsg disseminates a block proposal from the view leader. The
// block always travels with its full payload.
type ProposalMsg struct {
	Block *Block
	// TC, if non-nil, justifies proposing after a view change: it
	// proves a quorum abandoned the previous view.
	TC *TC
	// PayloadIDs is a reserved wire field for a digest-form proposal
	// (payload stripped, transaction IDs listed). The engine never
	// sends one and judges a received proposal by its Block alone, so
	// a stripped block is rejected whatever IDs ride along.
	PayloadIDs []TxID
}

// VoteMsg carries a vote, routed either to the next leader (HotStuff
// family) or broadcast (Streamlet).
type VoteMsg struct {
	Vote *Vote
}

// TimeoutMsg broadcasts a replica's view timeout.
type TimeoutMsg struct {
	Timeout *Timeout
}

// TCMsg forwards an assembled timeout certificate, in particular to
// the leader of the next view.
type TCMsg struct {
	TC *TC
}

// RequestMsg submits a transaction from a client to a replica.
type RequestMsg struct {
	Tx Transaction
}

// PayloadBatchMsg carries a batch of client transactions between
// replica mempools. It keeps its place in the wire registry, but the
// engine neither sends it nor acts on one it receives.
type PayloadBatchMsg struct {
	Txs []Transaction
}

// ReplyMsg confirms to a client that its transaction committed, or —
// when Rejected is set — that the replica's memory pool refused it.
type ReplyMsg struct {
	TxID     TxID
	View     View
	BlockID  Hash
	Rejected bool
}

// FetchMsg asks a peer for a missing ancestor block — simple catch-up
// for replicas that missed a proposal (e.g. across a healed partition).
type FetchMsg struct {
	BlockID Hash
}

// SyncRequestMsg asks a peer for a contiguous range of committed
// blocks — the deep catch-up path for replicas whose gap outruns the
// forest keep window, where per-block FetchMsg walks dead-end. From is
// the first wanted height (the requester's committed height plus one);
// To bounds the range, with zero meaning "as far as you have". Peers
// serve the range from their persistent ledger, falling back to the
// in-memory forest for recent heights.
type SyncRequestMsg struct {
	From uint64
	To   uint64
}

// SyncResponseMsg answers a SyncRequestMsg with committed blocks in
// height order starting at From. Each block carries the quorum
// certificate for its parent, so the requester verifies the whole
// range as a certified chain anchored at its own committed head —
// forged history from a Byzantine peer fails certificate verification.
// Head is the responder's committed height; an empty Blocks slice with
// Head at or below the requester's height tells it catch-up is done.
// Floor, when non-zero, is the lowest height the responder can still
// serve: its ledger prefix below it was compacted away once a state
// snapshot covered it. An empty response with Floor above the
// requested height tells the requester that block-by-block catch-up
// cannot bridge its gap and it must fall back to snapshot transfer.
type SyncResponseMsg struct {
	From   uint64
	Blocks []*Block
	Head   uint64
	Floor  uint64
}

// SnapshotRequestMsg drives snapshot transfer, the catch-up path for
// a replica whose gap outruns every peer's retained ledger prefix.
// With Height zero it asks the peer for the manifest of its latest
// state snapshot; with Height set it asks for chunk Chunk of the
// snapshot at that height.
type SnapshotRequestMsg struct {
	Height uint64
	Chunk  uint32
}

// SnapshotManifestMsg describes a peer's latest state snapshot: the
// committed block header it anchors to (payload stripped), a quorum
// certificate for that block, the canonical state serialization's
// digest and size, and the per-chunk digests at the serving chunk
// size. The manifest is the trust decision surface: a requester
// cross-checks {Height, Block, StateDigest} across f+1 peers and
// verifies the certificate before streaming a single chunk.
type SnapshotManifestMsg struct {
	Height      uint64
	Block       *Block
	QC          *QC
	StateDigest Hash
	TotalSize   uint64
	ChunkSize   uint32
	// ChunkDigests[i] hashes chunk i, letting the requester reject a
	// tampered chunk on arrival instead of after the full stream.
	ChunkDigests []Hash
}

// SnapshotChunkMsg carries one verified-size piece of a snapshot's
// state serialization, answering a chunk-indexed SnapshotRequestMsg.
type SnapshotChunkMsg struct {
	Height uint64
	Chunk  uint32
	Data   []byte
}

// QueryMsg asks a replica for local state (committed height, metrics);
// used by the HTTP API and the benchmarker.
type QueryMsg struct {
	// Height, if non-zero, requests the committed block hash at
	// that height for cross-replica consistency checks.
	Height uint64
}

// QueryReplyMsg answers a QueryMsg.
type QueryReplyMsg struct {
	CommittedHeight uint64
	CommittedView   View
	BlockHash       Hash
}

// SlowMsg adjusts a replica's artificial message delay at run time
// (the paper's "slow" command used to simulate network fluctuation).
type SlowMsg struct {
	// DelayMeanNanos and DelayStdNanos set the extra outbound
	// delay distribution; zero clears it.
	DelayMeanNanos int64
	DelayStdNanos  int64
}

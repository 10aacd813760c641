package codec

// Per-message binary layouts. Each registered message has a size
// function and an encode branch that MUST agree byte-for-byte (the
// Encoder checks, and wire_test.go proves it over the whole
// registry), plus an untrusting decode branch.
//
// Field primitives, all little-endian:
//
//	u8/u32/u64   fixed-width integers (View, NodeID, heights, counts)
//	hash         32 raw bytes
//	bytes        u32 length + raw bytes
//	presence     u8 0|1 before any pointer field; 0 means nil
//	slices       u32 element count + elements
//
// Signed int64 fields (timestamps, delays) travel as their two's-
// complement u64 bit pattern.

import (
	"encoding/binary"
	"fmt"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// --- sizes -----------------------------------------------------------

// bodySize returns the exact encoded body length for a registered
// message. Unregistered types never reach it (Encode checks the tag
// first).
func bodySize(msg any) int {
	switch m := msg.(type) {
	case types.ProposalMsg:
		return sizeBlockPtr(m.Block) + sizeTCPtr(m.TC) + 4 + 16*len(m.PayloadIDs)
	case types.VoteMsg:
		return sizeVotePtr(m.Vote)
	case types.TimeoutMsg:
		return sizeTimeoutPtr(m.Timeout)
	case types.TCMsg:
		return sizeTCPtr(m.TC)
	case types.FetchMsg:
		return 32
	case types.SyncRequestMsg:
		return 16
	case types.SyncResponseMsg:
		n := 8 + 8 + 8 + 4
		for _, b := range m.Blocks {
			n += sizeBlockPtr(b)
		}
		return n
	case types.SnapshotRequestMsg:
		return 12
	case types.SnapshotManifestMsg:
		return 8 + sizeBlockPtr(m.Block) + sizeQCPtr(m.QC) + 32 + 8 + 4 + 4 + 32*len(m.ChunkDigests)
	case types.SnapshotChunkMsg:
		return 12 + sizeBytes(m.Data)
	case types.RequestMsg:
		return sizeTx(&m.Tx)
	case types.PayloadBatchMsg:
		n := 4
		for i := range m.Txs {
			n += sizeTx(&m.Txs[i])
		}
		return n
	case types.ReplyMsg:
		return 16 + 8 + 32 + 1
	case types.QueryMsg:
		return 8
	case types.QueryReplyMsg:
		return 8 + 8 + 32
	case types.SlowMsg:
		return 16
	}
	panic(fmt.Sprintf("codec: bodySize of unregistered %T", msg))
}

func sizeBytes(p []byte) int { return 4 + len(p) }

func sizeTx(tx *types.Transaction) int { return 24 + sizeBytes(tx.Command) }

func sizeQC(qc *types.QC) int {
	n := 8 + 32 + 4 + 4*len(qc.Signers) + 4
	for _, s := range qc.Sigs {
		n += sizeBytes(s)
	}
	return n
}

func sizeQCPtr(qc *types.QC) int {
	if qc == nil {
		return 1
	}
	return 1 + sizeQC(qc)
}

func sizeBlockPtr(b *types.Block) int {
	if b == nil {
		return 1
	}
	n := 1 + 8 + 4 + 32 + sizeQCPtr(b.QC) + 4
	for i := range b.Payload {
		n += sizeTx(&b.Payload[i])
	}
	return n + 32 + sizeBytes(b.Sig)
}

func sizeVotePtr(v *types.Vote) int {
	if v == nil {
		return 1
	}
	return 1 + 8 + 32 + 4 + sizeBytes(v.Sig)
}

func sizeTimeoutPtr(t *types.Timeout) int {
	if t == nil {
		return 1
	}
	return 1 + 8 + 4 + sizeQCPtr(t.HighQC) + sizeBytes(t.Sig)
}

func sizeTCPtr(tc *types.TC) int {
	if tc == nil {
		return 1
	}
	n := 1 + 8 + 4 + 4*len(tc.Signers) + 4
	for _, s := range tc.Sigs {
		n += sizeBytes(s)
	}
	return n + sizeQCPtr(tc.HighQC)
}

// --- encode ----------------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// appendBody encodes a registered message's body.
func appendBody(b []byte, msg any) []byte {
	switch m := msg.(type) {
	case types.ProposalMsg:
		b = appendBlockPtr(b, m.Block)
		b = appendTCPtr(b, m.TC)
		b = appendU32(b, uint32(len(m.PayloadIDs)))
		for _, id := range m.PayloadIDs {
			b = appendU64(b, id.Client)
			b = appendU64(b, id.Seq)
		}
		return b
	case types.VoteMsg:
		return appendVotePtr(b, m.Vote)
	case types.TimeoutMsg:
		return appendTimeoutPtr(b, m.Timeout)
	case types.TCMsg:
		return appendTCPtr(b, m.TC)
	case types.FetchMsg:
		return append(b, m.BlockID[:]...)
	case types.SyncRequestMsg:
		b = appendU64(b, m.From)
		return appendU64(b, m.To)
	case types.SyncResponseMsg:
		b = appendU64(b, m.From)
		b = appendU64(b, m.Head)
		b = appendU64(b, m.Floor)
		b = appendU32(b, uint32(len(m.Blocks)))
		for _, blk := range m.Blocks {
			b = appendBlockPtr(b, blk)
		}
		return b
	case types.SnapshotRequestMsg:
		b = appendU64(b, m.Height)
		return appendU32(b, m.Chunk)
	case types.SnapshotManifestMsg:
		b = appendU64(b, m.Height)
		b = appendBlockPtr(b, m.Block)
		b = appendQCPtr(b, m.QC)
		b = append(b, m.StateDigest[:]...)
		b = appendU64(b, m.TotalSize)
		b = appendU32(b, m.ChunkSize)
		b = appendU32(b, uint32(len(m.ChunkDigests)))
		for i := range m.ChunkDigests {
			b = append(b, m.ChunkDigests[i][:]...)
		}
		return b
	case types.SnapshotChunkMsg:
		b = appendU64(b, m.Height)
		b = appendU32(b, m.Chunk)
		return appendBytes(b, m.Data)
	case types.RequestMsg:
		return appendTx(b, &m.Tx)
	case types.PayloadBatchMsg:
		b = appendU32(b, uint32(len(m.Txs)))
		for i := range m.Txs {
			b = appendTx(b, &m.Txs[i])
		}
		return b
	case types.ReplyMsg:
		b = appendU64(b, m.TxID.Client)
		b = appendU64(b, m.TxID.Seq)
		b = appendU64(b, uint64(m.View))
		b = append(b, m.BlockID[:]...)
		if m.Rejected {
			return append(b, 1)
		}
		return append(b, 0)
	case types.QueryMsg:
		return appendU64(b, m.Height)
	case types.QueryReplyMsg:
		b = appendU64(b, m.CommittedHeight)
		b = appendU64(b, uint64(m.CommittedView))
		return append(b, m.BlockHash[:]...)
	case types.SlowMsg:
		b = appendU64(b, uint64(m.DelayMeanNanos))
		return appendU64(b, uint64(m.DelayStdNanos))
	}
	panic(fmt.Sprintf("codec: appendBody of unregistered %T", msg))
}

func appendTx(b []byte, tx *types.Transaction) []byte {
	b = appendU64(b, tx.ID.Client)
	b = appendU64(b, tx.ID.Seq)
	b = appendU64(b, uint64(tx.SubmitUnixNano))
	return appendBytes(b, tx.Command)
}

func appendQC(b []byte, qc *types.QC) []byte {
	b = appendU64(b, uint64(qc.View))
	b = append(b, qc.BlockID[:]...)
	b = appendU32(b, uint32(len(qc.Signers)))
	for _, id := range qc.Signers {
		b = appendU32(b, uint32(id))
	}
	b = appendU32(b, uint32(len(qc.Sigs)))
	for _, s := range qc.Sigs {
		b = appendBytes(b, s)
	}
	return b
}

func appendQCPtr(b []byte, qc *types.QC) []byte {
	if qc == nil {
		return append(b, 0)
	}
	return appendQC(append(b, 1), qc)
}

func appendBlockPtr(b []byte, blk *types.Block) []byte {
	if blk == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU64(b, uint64(blk.View))
	b = appendU32(b, uint32(blk.Proposer))
	b = append(b, blk.Parent[:]...)
	b = appendQCPtr(b, blk.QC)
	b = appendU32(b, uint32(len(blk.Payload)))
	for i := range blk.Payload {
		b = appendTx(b, &blk.Payload[i])
	}
	// The digest travels explicitly so stripped blocks (snapshot
	// headers) decode with their payload commitment intact.
	b = append(b, blk.Digest[:]...)
	return appendBytes(b, blk.Sig)
}

func appendVotePtr(b []byte, v *types.Vote) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU64(b, uint64(v.View))
	b = append(b, v.BlockID[:]...)
	b = appendU32(b, uint32(v.Voter))
	return appendBytes(b, v.Sig)
}

func appendTimeoutPtr(b []byte, t *types.Timeout) []byte {
	if t == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU64(b, uint64(t.View))
	b = appendU32(b, uint32(t.Voter))
	b = appendQCPtr(b, t.HighQC)
	return appendBytes(b, t.Sig)
}

func appendTCPtr(b []byte, tc *types.TC) []byte {
	if tc == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU64(b, uint64(tc.View))
	b = appendU32(b, uint32(len(tc.Signers)))
	for _, id := range tc.Signers {
		b = appendU32(b, uint32(id))
	}
	b = appendU32(b, uint32(len(tc.Sigs)))
	for _, s := range tc.Sigs {
		b = appendBytes(b, s)
	}
	return appendQCPtr(b, tc.HighQC)
}

// --- decode ----------------------------------------------------------

// reader parses one frame body with a sticky error: after the first
// violation every further read is a no-op and the message is
// rejected. Byte fields are carved from a single arena allocation
// capped at the frame's own length, so decode never allocates more
// than the bytes actually received (plus the decoded structs).
type reader struct {
	buf   []byte
	arena []byte
	cap   int
	err   error
}

func newReader(body []byte) *reader { return &reader{buf: body, cap: len(body)} }

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: %s: %w", what, ErrBadFrame)
	}
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail("truncated u8")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) hash() (h types.Hash) {
	if r.err != nil {
		return
	}
	if len(r.buf) < 32 {
		r.fail("truncated hash")
		return
	}
	copy(h[:], r.buf)
	r.buf = r.buf[32:]
	return
}

// present reads a pointer presence byte, strict 0|1 so random bytes
// don't accidentally parse.
func (r *reader) present() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return r.err == nil
	default:
		r.fail("invalid presence byte")
		return false
	}
}

// count reads a slice length and bounds it by the bytes remaining in
// the frame at elemMin bytes per element — the cap that keeps hostile
// counts from pre-allocating past MaxFrame.
func (r *reader) count(elemMin int, what string) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n > len(r.buf)/elemMin {
		r.fail(what + " count overruns frame")
		return 0
	}
	return n
}

// bytes reads a length-prefixed byte field, carved out of the shared
// arena so a message's many small fields (signatures, commands) cost
// one allocation per frame instead of one each. The three-index slice
// pins each field's capacity, so growing one later cannot clobber its
// neighbors.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.fail("byte field overruns frame")
		return nil
	}
	src := r.buf[:n]
	r.buf = r.buf[n:]
	if n == 0 {
		return nil
	}
	if r.arena == nil {
		// Disjoint byte fields of one frame can never sum past the
		// frame length, so this single allocation serves them all.
		r.arena = make([]byte, 0, r.cap)
	}
	start := len(r.arena)
	r.arena = append(r.arena, src...)
	return r.arena[start:len(r.arena):len(r.arena)]
}

func (r *reader) tx(tx *types.Transaction) {
	tx.ID.Client = r.u64()
	tx.ID.Seq = r.u64()
	tx.SubmitUnixNano = int64(r.u64())
	tx.Command = r.bytes()
}

// txMinSize bounds pre-allocation of transaction slices: id (16) +
// timestamp (8) + command length word (4).
const txMinSize = 28

func (r *reader) txs() []types.Transaction {
	n := r.count(txMinSize, "transaction")
	if n == 0 {
		return nil
	}
	txs := make([]types.Transaction, n)
	for i := range txs {
		r.tx(&txs[i])
	}
	return txs
}

func (r *reader) qc() *types.QC {
	if !r.present() {
		return nil
	}
	qc := &types.QC{View: types.View(r.u64()), BlockID: r.hash()}
	if n := r.count(4, "signer"); n > 0 {
		qc.Signers = make([]types.NodeID, n)
		for i := range qc.Signers {
			qc.Signers[i] = types.NodeID(r.u32())
		}
	}
	if n := r.count(4, "signature"); n > 0 {
		qc.Sigs = make([][]byte, n)
		for i := range qc.Sigs {
			qc.Sigs[i] = r.bytes()
		}
	}
	if r.err != nil {
		return nil
	}
	return qc
}

func (r *reader) block() *types.Block {
	if !r.present() {
		return nil
	}
	b := &types.Block{
		View:     types.View(r.u64()),
		Proposer: types.NodeID(r.u32()),
		Parent:   r.hash(),
	}
	b.QC = r.qc()
	b.Payload = r.txs()
	b.Digest = r.hash()
	b.Sig = r.bytes()
	if r.err != nil {
		return nil
	}
	return b
}

func (r *reader) vote() *types.Vote {
	if !r.present() {
		return nil
	}
	v := &types.Vote{View: types.View(r.u64()), BlockID: r.hash(), Voter: types.NodeID(r.u32())}
	v.Sig = r.bytes()
	if r.err != nil {
		return nil
	}
	return v
}

func (r *reader) timeout() *types.Timeout {
	if !r.present() {
		return nil
	}
	t := &types.Timeout{View: types.View(r.u64()), Voter: types.NodeID(r.u32())}
	t.HighQC = r.qc()
	t.Sig = r.bytes()
	if r.err != nil {
		return nil
	}
	return t
}

func (r *reader) tc() *types.TC {
	if !r.present() {
		return nil
	}
	tc := &types.TC{View: types.View(r.u64())}
	if n := r.count(4, "signer"); n > 0 {
		tc.Signers = make([]types.NodeID, n)
		for i := range tc.Signers {
			tc.Signers[i] = types.NodeID(r.u32())
		}
	}
	if n := r.count(4, "signature"); n > 0 {
		tc.Sigs = make([][]byte, n)
		for i := range tc.Sigs {
			tc.Sigs[i] = r.bytes()
		}
	}
	tc.HighQC = r.qc()
	if r.err != nil {
		return nil
	}
	return tc
}

// decodeBody parses one frame body into its message value. Trailing
// bytes beyond the fields this version knows are ignored, which is
// what lets future encoders append fields without a version bump.
func decodeBody(tag types.WireTag, body []byte) (any, error) {
	r := newReader(body)
	var msg any
	switch tag {
	case types.TagProposal:
		m := types.ProposalMsg{Block: r.block(), TC: r.tc()}
		if n := r.count(16, "payload id"); n > 0 {
			m.PayloadIDs = make([]types.TxID, n)
			for i := range m.PayloadIDs {
				m.PayloadIDs[i] = types.TxID{Client: r.u64(), Seq: r.u64()}
			}
		}
		msg = m
	case types.TagVote:
		msg = types.VoteMsg{Vote: r.vote()}
	case types.TagTimeout:
		msg = types.TimeoutMsg{Timeout: r.timeout()}
	case types.TagTC:
		msg = types.TCMsg{TC: r.tc()}
	case types.TagFetch:
		msg = types.FetchMsg{BlockID: r.hash()}
	case types.TagSyncRequest:
		msg = types.SyncRequestMsg{From: r.u64(), To: r.u64()}
	case types.TagSyncResponse:
		m := types.SyncResponseMsg{From: r.u64(), Head: r.u64(), Floor: r.u64()}
		if n := r.count(1, "block"); n > 0 {
			m.Blocks = make([]*types.Block, n)
			for i := range m.Blocks {
				m.Blocks[i] = r.block()
			}
		}
		msg = m
	case types.TagSnapshotRequest:
		msg = types.SnapshotRequestMsg{Height: r.u64(), Chunk: r.u32()}
	case types.TagSnapshotManifest:
		m := types.SnapshotManifestMsg{Height: r.u64(), Block: r.block(), QC: r.qc(), StateDigest: r.hash(), TotalSize: r.u64(), ChunkSize: r.u32()}
		if n := r.count(32, "chunk digest"); n > 0 {
			m.ChunkDigests = make([]types.Hash, n)
			for i := range m.ChunkDigests {
				m.ChunkDigests[i] = r.hash()
			}
		}
		msg = m
	case types.TagSnapshotChunk:
		msg = types.SnapshotChunkMsg{Height: r.u64(), Chunk: r.u32(), Data: r.bytes()}
	case types.TagRequest:
		var m types.RequestMsg
		r.tx(&m.Tx)
		msg = m
	case types.TagPayloadBatch:
		msg = types.PayloadBatchMsg{Txs: r.txs()}
	case types.TagReply:
		m := types.ReplyMsg{TxID: types.TxID{Client: r.u64(), Seq: r.u64()}, View: types.View(r.u64()), BlockID: r.hash()}
		m.Rejected = r.u8() == 1
		msg = m
	case types.TagQuery:
		msg = types.QueryMsg{Height: r.u64()}
	case types.TagQueryReply:
		msg = types.QueryReplyMsg{CommittedHeight: r.u64(), CommittedView: types.View(r.u64()), BlockHash: r.hash()}
	case types.TagSlow:
		msg = types.SlowMsg{DelayMeanNanos: int64(r.u64()), DelayStdNanos: int64(r.u64())}
	default:
		return nil, fmt.Errorf("codec: tag %d: %w", tag, ErrUnknownTag)
	}
	if r.err != nil {
		return nil, r.err
	}
	return msg, nil
}

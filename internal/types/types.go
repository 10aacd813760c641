// Package types defines the basic identifiers and wire-level data
// structures shared by every chained-BFT protocol built on Bamboo:
// views, node identifiers, transactions, blocks, quorum certificates,
// votes, timeouts, and timeout certificates.
//
// The structures mirror Section II of "Dissecting the Performance of
// Chained-BFT" (ICDCS 2021): a block carries a hash link to its parent
// and a quorum certificate (QC) certifying that parent, so a vote on a
// block implicitly extends votes on its ancestors.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// View is a monotonically increasing protocol round. Each view has a
// designated leader chosen by the election module.
type View uint64

// NodeID identifies a replica. IDs are dense, starting at 1; ID 0 is
// reserved to mean "no node".
type NodeID uint32

// NoNode is the zero NodeID, used where a node reference is absent.
const NoNode NodeID = 0

// String implements fmt.Stringer.
func (id NodeID) String() string { return fmt.Sprintf("n%d", uint32(id)) }

// Hash is a 32-byte SHA-256 digest used for block identifiers and
// parent links.
type Hash [32]byte

// ZeroHash is the all-zero hash, used as the genesis parent link.
var ZeroHash Hash

// String renders the first four bytes of the hash in hex.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:4]) }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// TxID uniquely identifies a transaction by its issuing client and a
// client-local sequence number. Using a comparable struct keeps
// duplicate suppression allocation-free.
type TxID struct {
	Client uint64
	Seq    uint64
}

// String implements fmt.Stringer.
func (t TxID) String() string { return fmt.Sprintf("c%d/%d", t.Client, t.Seq) }

// Transaction is a client command replicated by the protocol. The
// payload is opaque to consensus; the execution layer (e.g. the
// in-memory key-value store) interprets it after commit.
type Transaction struct {
	ID      TxID
	Command []byte
	// SubmitUnixNano records the client submission time for
	// client-side latency measurement. It is carried through the
	// system untouched.
	SubmitUnixNano int64
}

// Size returns the wire-relevant size of the transaction in bytes:
// identifier, timestamp, and payload. It is what the network layer
// charges against link bandwidth.
func (tx *Transaction) Size() int { return 24 + len(tx.Command) }

// QC is a quorum certificate: proof that a quorum (2f+1 of n) of
// replicas voted for the block identified by BlockID in View.
// Signers[i] produced Sigs[i] over the (View, BlockID) pair.
type QC struct {
	View    View
	BlockID Hash
	Signers []NodeID
	Sigs    [][]byte
}

// Clone returns a deep copy of the QC. QCs are shared across replicas
// in in-process deployments, so mutating paths must copy first.
func (qc *QC) Clone() *QC {
	if qc == nil {
		return nil
	}
	cp := &QC{View: qc.View, BlockID: qc.BlockID}
	cp.Signers = append([]NodeID(nil), qc.Signers...)
	cp.Sigs = make([][]byte, len(qc.Sigs))
	for i, s := range qc.Sigs {
		cp.Sigs[i] = append([]byte(nil), s...)
	}
	return cp
}

// IsGenesis reports whether the QC certifies the genesis block.
func (qc *QC) IsGenesis() bool { return qc != nil && qc.View == 0 }

// SigningDigest returns the digest replicas sign when voting for
// (view, blockID). Votes and QCs share this digest so a QC is exactly
// an aggregation of vote signatures.
func SigningDigest(view View, blockID Hash) []byte {
	var buf [8 + 32]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(view))
	copy(buf[8:], blockID[:])
	sum := sha256.Sum256(buf[:])
	return sum[:]
}

// TimeoutDigest returns the digest replicas sign on a timeout for a
// view. A timeout certificate aggregates these signatures.
func TimeoutDigest(view View) []byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(view))
	copy(buf[8:], "timeout!")
	sum := sha256.Sum256(buf[:])
	return sum[:]
}

// DigestPayload hashes an ordered transaction batch: each transaction's
// identifier and command, in batch order. It is the payload commitment
// blocks carry, so a block ID covers its payload through one hash.
func DigestPayload(txs []Transaction) Hash {
	h := sha256.New()
	var buf [8]byte
	for i := range txs {
		tx := &txs[i]
		binary.BigEndian.PutUint64(buf[:], tx.ID.Client)
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], tx.ID.Seq)
		h.Write(buf[:])
		h.Write(tx.Command)
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// Block is the unit of replication. Its QC certifies the parent block,
// cryptographically chaining blocks together.
type Block struct {
	View     View
	Proposer NodeID
	// Parent is the hash of the parent block; it always equals
	// QC.BlockID for honest proposers.
	Parent  Hash
	QC      *QC
	Payload []Transaction
	// Digest commits to the payload (see DigestPayload). It is
	// computed lazily from Payload for full blocks and carried
	// explicitly on payload-stripped headers (StripPayload).
	Digest Hash
	// Sig is the proposer's signature over the block ID.
	Sig []byte

	// id caches the block hash; compute with ID(). The once guard
	// makes first use safe from any goroutine: blocks travel by
	// pointer between in-process replicas, so two event loops may
	// materialize the same block's hash concurrently.
	idOnce sync.Once
	id     Hash
}

// PayloadDigest returns the block's payload commitment, materializing
// the block identity (which caches the digest) on first use. Blocks
// with an empty payload and no explicit digest commit to the zero
// hash.
func (b *Block) PayloadDigest() Hash {
	b.idOnce.Do(b.computeID)
	return b.Digest
}

// ID returns the block's hash, computing and caching it on first use.
// The hash covers view, proposer, parent link, the certified parent's
// view, and the payload digest — everything that determines the
// block's position and contents. Because the payload enters through
// its digest, a payload-stripped header has the full block's ID;
// CarriesPayload tells the two apart.
func (b *Block) ID() Hash {
	b.idOnce.Do(b.computeID)
	return b.id
}

// computeID runs exactly once per block, under idOnce: it fills the
// payload digest (when the block carries its payload inline) and the
// block hash.
func (b *Block) computeID() {
	if b.Digest.IsZero() && len(b.Payload) > 0 {
		b.Digest = DigestPayload(b.Payload)
	}
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(b.View))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(b.Proposer))
	h.Write(buf[:])
	h.Write(b.Parent[:])
	if b.QC != nil {
		binary.BigEndian.PutUint64(buf[:], uint64(b.QC.View))
		h.Write(buf[:])
		h.Write(b.QC.BlockID[:])
	}
	h.Write(b.Digest[:])
	copy(b.id[:], h.Sum(nil))
}

// StripPayload returns a copy of the block carrying the payload digest
// instead of the payload itself — the header a state snapshot anchors
// to. The copy shares the (immutable) QC and signature and has its ID
// pre-computed, so concurrent readers never mutate the original block.
func (b *Block) StripPayload() *Block {
	cp := &Block{
		View:     b.View,
		Proposer: b.Proposer,
		Parent:   b.Parent,
		QC:       b.QC,
		Digest:   b.PayloadDigest(),
		Sig:      b.Sig,
	}
	cp.idOnce.Do(func() { cp.id = b.ID() })
	return cp
}

// CarriesPayload reports whether the block carries exactly the payload
// its digest — and so its signed ID — commits to: a non-empty payload
// must hash to the digest, and an empty payload must come with the
// zero digest. A payload-stripped header fails it, as does a header
// with a substituted payload; a replica must never attach, execute or
// serve either under the full block's ID.
func (b *Block) CarriesPayload() bool {
	if len(b.Payload) == 0 {
		return b.PayloadDigest().IsZero()
	}
	return DigestPayload(b.Payload) == b.PayloadDigest()
}

// Size returns the approximate wire size of the block in bytes,
// charged against link bandwidth by the network layer.
func (b *Block) Size() int {
	n := 8 + 4 + 32 + len(b.Sig) // header
	if b.QC != nil {
		n += 8 + 32
		for _, s := range b.QC.Sigs {
			n += 4 + len(s)
		}
		n += 4 * len(b.QC.Signers)
	}
	for i := range b.Payload {
		n += b.Payload[i].Size()
	}
	return n
}

// String implements fmt.Stringer.
func (b *Block) String() string {
	return fmt.Sprintf("block{v=%d id=%s parent=%s txs=%d}", b.View, b.ID(), b.Parent, len(b.Payload))
}

// Vote is a replica's signed endorsement of a block.
type Vote struct {
	View    View
	BlockID Hash
	Voter   NodeID
	Sig     []byte
}

// String implements fmt.Stringer.
func (v *Vote) String() string {
	return fmt.Sprintf("vote{v=%d block=%s from=%s}", v.View, v.BlockID, v.Voter)
}

// Timeout is a replica's signed declaration that its timer for View
// expired. It carries the replica's highest known QC so the next
// leader can safely extend the freshest certified block.
type Timeout struct {
	View   View
	Voter  NodeID
	HighQC *QC
	Sig    []byte
}

// String implements fmt.Stringer.
func (t *Timeout) String() string {
	return fmt.Sprintf("timeout{v=%d from=%s}", t.View, t.Voter)
}

// TC is a timeout certificate: proof that a quorum of replicas timed
// out of View. Receiving a TC advances a replica to View+1. HighQC is
// the freshest QC among the aggregated timeouts.
type TC struct {
	View    View
	Signers []NodeID
	Sigs    [][]byte
	HighQC  *QC
}

// String implements fmt.Stringer.
func (tc *TC) String() string { return fmt.Sprintf("tc{v=%d n=%d}", tc.View, len(tc.Signers)) }

// Package snapshot makes catch-up and restart cost proportional to
// state instead of history. A Snapshot captures one replica's state
// machine at a committed height: the canonical state serialization,
// its digest, and the certified block header anchoring it to the
// chain. Replicas persist snapshots periodically alongside the ledger
// (which then compacts the covered prefix), serve them to peers whose
// gap outruns every retained ledger prefix, and replay their own
// snapshot + ledger suffix on restart instead of re-fetching the whole
// chain through state sync.
//
// Trust model: a snapshot's payload is self-authenticating against its
// digest, but the digest itself is only as good as its source. A
// requester therefore cross-checks the {height, block, digest} triple
// against f+1 peers before streaming any chunk — at least one of f+1
// agreeing replicas is honest — and additionally verifies the quorum
// certificate carried by the manifest, which binds the snapshot height
// to a certified block of the real chain.
//
// On disk a snapshot is one file: a format-version byte, the length of
// the header (u32), the header — height (u64), the stripped block, its
// certificate, the state digest, with block and certificate in the
// wire codec's field layout (internal/codec) — and then the state
// payload, which runs to the end of the file. Keeping the payload out
// of the header lets a save write it, and a load slice it, without a
// copy. The file is replaced atomically and durably by the replace the
// ledger and the WAL also use (internal/disk); one that is truncated,
// carries an unknown version byte, does not decode or does not
// validate means "no snapshot", exactly like a missing file — there is
// no reader for older formats.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/disk"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// ChunkSize is the transfer granularity snapshots are served at: big
// enough to amortize a round trip, comfortably below the codec's
// frame cap so a chunk message always fits one frame.
const ChunkSize = 256 << 10

// MaxChunkSize bounds the chunk size a requester accepts from a
// peer's manifest (a hostile manifest must not make the requester
// agree to frames the codec will reject anyway).
const MaxChunkSize = 4 << 20

// MaxStateSize bounds the total snapshot payload a requester will
// stream — a hostile manifest cannot commit it to gigabytes.
const MaxStateSize = 1 << 30

// State is the contract a state machine implements to be snapshotted:
// a deterministic serialization (equal committed prefixes must yield
// byte-identical output across replicas) and its inverse. The kvstore
// implements it.
type State interface {
	// SnapshotState serializes the full state canonically.
	SnapshotState() []byte
	// RestoreState replaces the state with a serialization produced
	// by SnapshotState.
	RestoreState(data []byte) error
}

// Snapshot is one captured state: everything a peer needs to install
// the state machine at Height and fast-forward from there.
type Snapshot struct {
	// Height is the committed height the state reflects.
	Height uint64
	// Block is the committed block header at Height (payload
	// stripped; the identity covers the payload through its digest).
	Block *types.Block
	// QC is a quorum certificate for Block — proof the snapshot
	// anchors to a certified block of the real chain.
	QC *types.QC
	// StateDigest is Digest(Payload), the state commitment peers
	// cross-check before trusting the snapshot.
	StateDigest types.Hash
	// Payload is the canonical state serialization.
	Payload []byte
}

// Digest is the state commitment: a SHA-256 over the canonical
// serialization.
func Digest(payload []byte) types.Hash {
	return sha256.Sum256(payload)
}

// ChunkCount returns how many ChunkSize-sized pieces a payload of the
// given total splits into (zero for an empty payload).
func ChunkCount(total uint64, chunkSize uint32) int {
	if chunkSize == 0 {
		return 0
	}
	return int((total + uint64(chunkSize) - 1) / uint64(chunkSize))
}

// ChunkDigests hashes every chunk of the payload, so a requester can
// verify each chunk the moment it arrives instead of discovering a
// tampered byte only after streaming the whole state.
func ChunkDigests(payload []byte, chunkSize uint32) []types.Hash {
	n := ChunkCount(uint64(len(payload)), chunkSize)
	out := make([]types.Hash, n)
	for i := 0; i < n; i++ {
		out[i] = sha256.Sum256(Chunk(payload, chunkSize, uint32(i)))
	}
	return out
}

// Chunk slices chunk i of the payload (nil when out of range).
func Chunk(payload []byte, chunkSize uint32, i uint32) []byte {
	start := uint64(i) * uint64(chunkSize)
	if start >= uint64(len(payload)) {
		return nil
	}
	end := start + uint64(chunkSize)
	if end > uint64(len(payload)) {
		end = uint64(len(payload))
	}
	return payload[start:end]
}

// Validate checks the snapshot's internal consistency: anchored block
// and certificate present and matching, payload hashing to the
// recorded digest. It does not verify certificate signatures — that
// is the consumer's job, with its own quorum size.
func (s *Snapshot) Validate() error {
	if s == nil || s.Block == nil || s.QC == nil {
		return errors.New("snapshot: missing block or certificate")
	}
	if s.Height == 0 {
		return errors.New("snapshot: zero height")
	}
	if s.QC.BlockID != s.Block.ID() {
		return errors.New("snapshot: certificate does not name the snapshot block")
	}
	if Digest(s.Payload) != s.StateDigest {
		return errors.New("snapshot: payload does not hash to the recorded digest")
	}
	return nil
}

// Store persists a replica's latest snapshot in one file, atomically
// replaced on every save, and keeps it cached in
// memory for serving. Chunk digests are computed lazily on the first
// serve and cached — captures run on the commit path, and hashing the
// whole state a second time there would double the stall for a
// by-product only catch-up requesters need. Only the latest snapshot
// is retained: an older one is strictly dominated once the ledger
// holds the suffix between them.
type Store struct {
	mu      sync.Mutex
	path    string
	latest  *Snapshot
	digests []types.Hash
}

// OpenStore opens (or creates) the snapshot store at path, loading
// and validating any previously saved snapshot. A file that fails to
// decode or validate is ignored — the replica simply has no usable
// snapshot, the same as a fresh deployment.
func OpenStore(path string) (*Store, error) {
	st := &Store{path: path}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if snap := decodeFile(data); snap.Validate() == nil {
		st.latest = snap
	}
	return st, nil
}

// version is the format-version byte a snapshot file starts with.
const version = 1

// prefixLen is the fixed part before the header: the version byte and
// the header's u32 length.
const prefixLen = 1 + 4

// appendHeader appends everything of the file but the payload.
func appendHeader(buf []byte, s *Snapshot) []byte {
	n := 8 + codec.BlockSize(s.Block) + codec.QCSize(s.QC) + len(s.StateDigest)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint64(buf, s.Height)
	buf = codec.AppendBlock(buf, s.Block)
	buf = codec.AppendQC(buf, s.QC)
	return append(buf, s.StateDigest[:]...)
}

// decodeFile parses a snapshot file, or returns nil for one that is not
// a snapshot this build can read. The payload aliases data.
func decodeFile(data []byte) *Snapshot {
	if len(data) < prefixLen || data[0] != version {
		return nil
	}
	n := uint64(binary.LittleEndian.Uint32(data[1:prefixLen]))
	if n > uint64(len(data)-prefixLen) {
		return nil
	}
	r := codec.NewReader(data[prefixLen : prefixLen+n])
	snap := &Snapshot{
		Height:      r.U64(),
		Block:       r.Block(),
		QC:          r.QC(),
		StateDigest: r.Hash(),
		Payload:     data[prefixLen+n:],
	}
	if r.Err() != nil {
		return nil
	}
	return snap
}

// Save validates and persists the snapshot as the new latest by an
// atomic, durable replace: the bytes are synced to disk before the
// rename and the directory after it, because the caller's very next
// step is compacting the ledger prefix this snapshot replaces — a crash
// must never find the prefix gone and the snapshot still in the page
// cache.
func (st *Store) Save(s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	header := appendHeader(nil, s)
	st.mu.Lock()
	defer st.mu.Unlock()
	f, err := disk.Replace(st.path, true, func(w io.Writer) error {
		for _, part := range [][]byte{header, s.Payload} {
			if _, err := w.Write(part); err != nil {
				return err
			}
		}
		return nil
	})
	if f == nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// The file now holds s, whether or not the directory sync failed.
	st.latest = s
	st.digests = nil // recomputed lazily on the first serve
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Latest returns the cached latest snapshot and its per-chunk digests
// (at ChunkSize granularity), computing the digests on first use. The
// snapshot is shared, not copied — callers must treat it as immutable.
func (st *Store) Latest() (*Snapshot, []types.Hash, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.latest == nil {
		return nil, nil, false
	}
	if st.digests == nil && len(st.latest.Payload) > 0 {
		st.digests = ChunkDigests(st.latest.Payload, ChunkSize)
	}
	return st.latest, st.digests, true
}

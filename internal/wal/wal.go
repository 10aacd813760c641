// Package wal persists the durable safety state of one replica: the
// few words of protocol state (last-voted view, preferred view, the
// highest known certificate, the pacemaker's current view) that must
// survive a crash for the voting rule to stay safe across it, plus
// the short certified-but-uncommitted block suffix that makes the
// restored lock satisfiable after a whole-cluster crash. Without the
// views a SIGKILLed replica forgets it ever voted and can vote twice
// in the same view after restart — Byzantine equivocation produced by
// a crash fault. The engine appends a record BEFORE any vote or
// timeout message leaves the node, so by the time a peer can count
// this replica's signature the state that forbids a second one is on
// disk.
//
// # Format
//
// The log is a sequence of frames in the checksummed frame the ledger
// also uses (internal/disk): `uvarint body length | crc32 (IEEE,
// little-endian) of the body | body`. Safety state is small and
// precious: a bit flip must be a clean rejection, not a silently wrong
// lock. A body starts with a format-version byte and a kind byte;
// blocks and certificates inside it use the wire codec's field layout
// (internal/codec).
//
//	block frame: version, kindBlock, block ID (32), block
//	state frame: version, kindState, CurView, LastVoted, Preferred,
//	             LastTimeout (u64 each), HighQC, u32 n, n block IDs
//
// A Record's Suffix changes by about one block per vote, and the
// blocks are two orders of magnitude larger than everything else in
// the record, so each block is written once: Append frames only the
// suffix blocks the file does not hold yet (normally one), then a state
// frame that names the whole suffix by ID, all in one write and — in
// fsync mode — one sync. The last intact state frame is the durable
// state; its suffix is looked up among the block frames, wherever in
// the file they sit.
//
// # Recovery
//
// A frame that runs past the end of the file is the footprint of a
// crash mid-append and is cut off at Open. Because a state frame is
// written after the blocks it names, an intact state frame implies
// they are intact too: recovery lands on the last fully written state
// and never on one with a missing block. Everything else — a checksum
// mismatch, a body that does not decode, a state frame naming a block
// the file does not hold, a block that does not hash to the ID its
// frame carries — is real corruption and fails Open with ErrCorrupt. A
// body whose version byte this build does not know is refused with its
// own error; there is no reader for older formats (no log outlives the
// deployment that wrote it).
//
// Every state frame supersedes all earlier ones, so the file is
// compacted back to the live suffix's block frames plus one state
// frame at Open and periodically during appends, by the atomic replace
// snapshot saves also use; it syncs only in fsync mode.
package wal

import (
	"bytes"
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

// Record is one durable-safety snapshot. Later records supersede
// earlier ones entirely; only the last intact record matters.
type Record struct {
	// CurView is the pacemaker view at the time of the append. A
	// restarted replica rejoins at this view, so it can never vote
	// below the views its pre-crash signatures already covered.
	CurView types.View
	// LastVoted is the protocol's lvView — the highest view this
	// replica has signed a block vote for.
	LastVoted types.View
	// Preferred is the protocol's lock (preferred view); restoring it
	// keeps a rebooted replica from voting for a branch that forks
	// below what it had locked.
	Preferred types.View
	// LastTimeout is the highest view this replica signed a timeout
	// for (the engine's f+1 join rule signs each view at most once).
	LastTimeout types.View
	// HighQC is the freshest certificate the protocol would extend.
	HighQC *types.QC
	// Suffix is the certified-but-uncommitted block path from just
	// above the committed tip up to HighQC's block, ascending by
	// height. A restored lock points at these blocks, and after a
	// whole-cluster crash nobody else has them either (only committed
	// blocks reach ledgers): without the suffix the lock is a promise
	// no proposal can ever satisfy — every replica waits for a
	// certificate at least as fresh as a block the cluster has
	// collectively forgotten, which is a deadlock, not safety. With
	// it, restore re-attaches the blocks to the replayed chain and the
	// restored HighQC is immediately extendable.
	Suffix []*types.Block
}

// ErrCorrupt reports a log that is structurally complete but wrong: a
// frame failing its checksum or decode, or a state frame whose suffix
// the file cannot supply. It is distinct from the truncated tail a
// crash mid-append leaves, which Open repairs silently, like the
// ledger.
var ErrCorrupt = errors.New("wal: corrupt record")

// version is the format-version byte every frame body starts with.
const version = 1

// Frame kinds, the second byte of a body.
const (
	kindBlock = 1
	kindState = 2
)

// idLen is the size of a block ID on disk.
const idLen = len(types.Hash{})

// maxFrame bounds a frame body. A block frame holds one block and a
// state frame a certificate and a list of IDs, so anything larger is
// corruption, not data. Append refuses to write a frame this bound
// would reject at Open.
const maxFrame = 1 << 24

// compactEvery is how many appends accumulate before the file is
// rewritten down to its live frames.
const compactEvery = 1024

// keepBuf is the encode-buffer capacity above which Append drops the
// buffer instead of keeping it for the next call: one oversized block
// must not pin its high-water capacity for the life of the replica.
const keepBuf = 1 << 20

// WAL is the append-only safety log of one replica. Appends are
// serialized internally; the engine calls it from its single event
// loop anyway.
type WAL struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	sync   bool
	latest *Record
	// written holds the IDs of the blocks that have a frame in the
	// file; Append skips those. Compaction resets it to the live suffix.
	written map[types.Hash]struct{}
	// buf is the encode buffer, reused across appends.
	buf []byte
	// sinceCompact counts appends since the file last held only its
	// live frames.
	sinceCompact int
	closed       bool
}

// Open opens (or creates) the safety log at path with fsync-per-append
// durability: Append returns only once the record is on stable
// storage, which is what lets a vote leave the node afterwards. Any
// frames already present are scanned, the damaged tail of a crash
// mid-append is cut off, and the file is compacted to the last intact
// state. Structural corruption is reported as an error.
func Open(path string) (*WAL, error) {
	return open(path, true)
}

// OpenNoSync is Open without the per-append fsync: records reach the
// page cache but survive only process death, not machine crash. It is
// the in-process cluster's mode, where a "crash" never takes the OS
// with it — the same durability trade the ledger's OpenBuffered makes.
func OpenNoSync(path string) (*WAL, error) {
	return open(path, false)
}

func open(path string, fsync bool) (*WAL, error) {
	latest, end, frames, err := scan(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > end {
		// Crash footprint: a partial frame past the last intact one.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: recover tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{path: path, f: f, sync: fsync, latest: latest}
	live := 0
	if latest != nil {
		live = len(latest.Suffix) + 1
	}
	if frames != live {
		if err := w.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		w.resetWritten()
	}
	return w, nil
}

// resetWritten makes written describe a file that holds exactly the
// live suffix.
func (w *WAL) resetWritten() {
	w.written = make(map[types.Hash]struct{})
	if w.latest != nil {
		for _, b := range w.latest.Suffix {
			w.written[b.ID()] = struct{}{}
		}
	}
}

// scan reads the log at path, returning the state of the last intact
// state frame with its suffix resolved, the end offset of the last
// intact frame, and how many intact frames the file holds. A missing
// file is an empty log.
func scan(path string) (latest *Record, end int64, frames int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer func() { _ = f.Close() }() // read only
	corrupt := func(off int64, why string) error {
		return fmt.Errorf("%w at offset %d in %s: %s", ErrCorrupt, off, path, why)
	}
	// blocks indexes every block frame by the ID it carries; only the
	// ones the final state names are ever decoded. The reader reuses its
	// buffer, so the bodies kept are copies.
	blocks := make(map[types.Hash][]byte)
	var state []byte
	var stateOff int64
	fr := disk.NewReader(f, maxFrame)
	for {
		body, n, st, err := fr.Next()
		if st == disk.End || st == disk.Torn {
			break
		}
		if st == disk.Corrupt {
			return nil, 0, 0, corrupt(end, err.Error())
		}
		if len(body) < 2 {
			return nil, 0, 0, corrupt(end, "short body")
		}
		if body[0] != version {
			return nil, 0, 0, fmt.Errorf("wal: %s: format version %d at offset %d, this build reads only version %d",
				path, body[0], end, version)
		}
		switch body[1] {
		case kindBlock:
			if len(body) < 2+idLen {
				return nil, 0, 0, corrupt(end, "short block frame")
			}
			blocks[types.Hash(body[2:2+idLen])] = bytes.Clone(body[2+idLen:])
		case kindState:
			state, stateOff = bytes.Clone(body[2:]), end
		default:
			return nil, 0, 0, corrupt(end, fmt.Sprintf("unknown frame kind %d", body[1]))
		}
		end += n
		frames++
	}
	if state == nil {
		return nil, end, frames, nil
	}
	rec, ids, err := decodeState(state)
	if err != nil {
		return nil, 0, 0, corrupt(stateOff, err.Error())
	}
	for _, id := range ids {
		enc, ok := blocks[id]
		if !ok {
			return nil, 0, 0, corrupt(stateOff, fmt.Sprintf("suffix block %s has no frame", id))
		}
		r := codec.NewReader(enc)
		b := r.Block()
		if r.Err() != nil || b == nil || b.ID() != id {
			return nil, 0, 0, corrupt(stateOff, fmt.Sprintf("frame of suffix block %s does not decode to it", id))
		}
		rec.Suffix = append(rec.Suffix, b)
	}
	return rec, end, frames, nil
}

// appendBlockFrame appends the frame carrying b under id.
func appendBlockFrame(buf []byte, id types.Hash, b *types.Block) ([]byte, error) {
	buf, err := disk.AppendFrame(buf, 2+idLen+codec.BlockSize(b), maxFrame, func(p []byte) []byte {
		p = append(p, version, kindBlock)
		p = append(p, id[:]...)
		return codec.AppendBlock(p, b)
	})
	if err != nil {
		return buf, fmt.Errorf("wal: %w", err)
	}
	return buf, nil
}

// appendStateFrame appends rec's state frame; the suffix travels as
// block IDs.
func appendStateFrame(buf []byte, rec *Record) ([]byte, error) {
	n := 2 + 4*8 + codec.QCSize(rec.HighQC) + 4 + len(rec.Suffix)*idLen
	buf, err := disk.AppendFrame(buf, n, maxFrame, func(p []byte) []byte {
		p = append(p, version, kindState)
		for _, v := range [...]types.View{rec.CurView, rec.LastVoted, rec.Preferred, rec.LastTimeout} {
			p = binary.LittleEndian.AppendUint64(p, uint64(v))
		}
		p = codec.AppendQC(p, rec.HighQC)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(rec.Suffix)))
		for _, b := range rec.Suffix {
			id := b.ID()
			p = append(p, id[:]...)
		}
		return p
	})
	if err != nil {
		return buf, fmt.Errorf("wal: %w", err)
	}
	return buf, nil
}

// decodeState parses a state frame's body (past the version and kind
// bytes) into a record without its suffix, and the suffix's block IDs.
func decodeState(body []byte) (*Record, []types.Hash, error) {
	r := codec.NewReader(body)
	rec := &Record{
		CurView:     types.View(r.U64()),
		LastVoted:   types.View(r.U64()),
		Preferred:   types.View(r.U64()),
		LastTimeout: types.View(r.U64()),
		HighQC:      r.QC(),
	}
	ids := make([]types.Hash, r.Count(idLen, "suffix block"))
	for i := range ids {
		ids[i] = r.Hash()
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return rec, ids, nil
}

// appendRecord appends everything that makes rec durable in a file
// already holding the blocks in written: a frame for each suffix block
// not there yet, then the state frame.
func appendRecord(buf []byte, rec *Record, written map[types.Hash]struct{}) ([]byte, error) {
	var err error
	for _, b := range rec.Suffix {
		if b == nil {
			return buf, errors.New("wal: nil block in suffix")
		}
		id := b.ID()
		if _, ok := written[id]; ok {
			continue
		}
		if buf, err = appendBlockFrame(buf, id, b); err != nil {
			return buf, err
		}
	}
	return appendStateFrame(buf, rec)
}

// Latest returns a copy of the last durable record, or nil for an
// empty log.
func (w *WAL) Latest() *Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.latest == nil {
		return nil
	}
	rec := *w.latest
	if rec.HighQC != nil {
		rec.HighQC = rec.HighQC.Clone()
	}
	if len(rec.Suffix) > 0 {
		// Blocks are immutable once built; copying the slice header is
		// enough to decouple the caller from later appends.
		rec.Suffix = append([]*types.Block(nil), rec.Suffix...)
	}
	return &rec
}

// Append makes rec the durable safety state: one write carrying the
// suffix blocks the file does not hold yet and the state frame, then
// (fsync mode) one sync. In fsync mode it returns only once the record
// is on stable storage — callers send the vote or timeout the record
// covers strictly after Append returns nil. A record that cannot be
// framed (a single block past the frame bound) is an error and nothing
// is written: the caller withholds its message, and silence is safe.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: closed")
	}
	buf, err := appendRecord(w.buf[:0], &rec, w.written)
	if cap(buf) <= keepBuf {
		w.buf = buf
	} else {
		w.buf = nil
	}
	if err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	for _, b := range rec.Suffix {
		w.written[b.ID()] = struct{}{}
	}
	// The certificate and the blocks are shared, not copied: both are
	// immutable once built, and Latest hands out its own copy.
	w.latest = &rec
	w.sinceCompact++
	if w.sinceCompact >= compactEvery {
		// Best-effort: a failed compaction only means the file stays
		// larger than its live frames; the append above is already
		// durable.
		_ = w.compactLocked()
	}
	return nil
}

// compactLocked rewrites the file down to the live suffix's block
// frames and one state frame by an atomic replace, durable in fsync
// mode, and swaps the handle onto the new file.
func (w *WAL) compactLocked() error {
	var frames []byte
	if w.latest != nil {
		var err error
		if frames, err = appendRecord(nil, w.latest, nil); err != nil {
			return err
		}
	}
	f, err := disk.Replace(w.path, w.sync, func(out io.Writer) error {
		_, err := out.Write(frames)
		return err
	})
	if f == nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	// The new file is in place even if err reports its directory sync:
	// append to it from now on.
	_ = w.f.Close() // every append to it is already written
	w.f = f
	w.sinceCompact = 0
	w.resetWritten()
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	return nil
}

// Close releases the file handle. The log stays valid on disk.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// Path returns the log's file path.
func (w *WAL) Path() string {
	return w.path
}

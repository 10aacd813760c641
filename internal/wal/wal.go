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
// The log is a sequence of frames, `uvarint body length | crc32 (IEEE,
// little-endian) of the body | body`. Safety state is small and
// precious, so every frame is checksummed: a bit flip must be a clean
// rejection, not a silently wrong lock. A body starts with a
// format-version byte and a kind byte; blocks and certificates inside
// it use the wire codec's field layout (internal/codec).
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
// frame at Open and periodically during appends (atomic
// write-then-rename, like snapshot saves).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/bamboo-bft/bamboo/internal/codec"
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
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	corrupt := func(off int, why string) error {
		return fmt.Errorf("%w at offset %d in %s: %s", ErrCorrupt, off, path, why)
	}
	// blocks indexes every block frame by the ID it carries; only the
	// ones the final state names are ever decoded.
	blocks := make(map[types.Hash][]byte)
	var state []byte
	stateOff, off := 0, 0
	for off < len(data) {
		body, next, status := readFrame(data, off)
		if status == frameTruncated {
			break
		}
		if status == frameCorrupt {
			return nil, 0, 0, corrupt(off, "bad length or checksum")
		}
		if len(body) < 2 {
			return nil, 0, 0, corrupt(off, "short body")
		}
		if body[0] != version {
			return nil, 0, 0, fmt.Errorf("wal: %s: format version %d at offset %d, this build reads only version %d",
				path, body[0], off, version)
		}
		switch body[1] {
		case kindBlock:
			if len(body) < 2+idLen {
				return nil, 0, 0, corrupt(off, "short block frame")
			}
			blocks[types.Hash(body[2:2+idLen])] = body[2+idLen:]
		case kindState:
			state, stateOff = body[2:], off
		default:
			return nil, 0, 0, corrupt(off, fmt.Sprintf("unknown frame kind %d", body[1]))
		}
		off = next
		frames++
	}
	if state == nil {
		return nil, int64(off), frames, nil
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
	return rec, int64(off), frames, nil
}

type frameStatus int

const (
	frameOK frameStatus = iota
	frameTruncated
	frameCorrupt
)

// readFrame returns the body of the frame starting at off and the
// offset of the next one. A frame that runs past the end of data is
// truncated (crash footprint); a frame whose length is implausible or
// whose body fails the checksum is corrupt.
func readFrame(data []byte, off int) (body []byte, next int, status frameStatus) {
	size, n := binary.Uvarint(data[off:])
	if n == 0 {
		return nil, 0, frameTruncated
	}
	if n < 0 || size > maxFrame {
		return nil, 0, frameCorrupt
	}
	start := off + n + 4
	next = start + int(size)
	if next > len(data) {
		return nil, 0, frameTruncated
	}
	if crc32.ChecksumIEEE(data[start:next]) != binary.LittleEndian.Uint32(data[off+n:]) {
		return nil, 0, frameCorrupt
	}
	return data[start:next], next, frameOK
}

// beginFrame appends the header of a frame whose body will be n bytes
// of the given kind, and the body's first two bytes. It returns the
// offset the body starts at, which endFrame needs.
func beginFrame(buf []byte, n int, kind byte) ([]byte, int, error) {
	if n > maxFrame {
		return buf, 0, fmt.Errorf("wal: %d-byte frame exceeds the %d-byte limit", n, maxFrame)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = append(buf, 0, 0, 0, 0) // checksum, filled in by endFrame
	body := len(buf)
	return append(buf, version, kind), body, nil
}

// endFrame seals the frame whose n-byte body starts at offset body and
// runs to the end of buf.
func endFrame(buf []byte, body, n int) error {
	if len(buf)-body != n {
		// The codec's size and append functions are tested to agree; a
		// mismatch is a codec bug, and a mis-framed record must not
		// reach the disk.
		return fmt.Errorf("wal: internal: frame sized %d, encoded %d", n, len(buf)-body)
	}
	binary.LittleEndian.PutUint32(buf[body-4:], crc32.ChecksumIEEE(buf[body:]))
	return nil
}

// appendBlockFrame appends the frame carrying b under id.
func appendBlockFrame(buf []byte, id types.Hash, b *types.Block) ([]byte, error) {
	n := 2 + idLen + codec.BlockSize(b)
	buf, body, err := beginFrame(buf, n, kindBlock)
	if err != nil {
		return buf, err
	}
	buf = append(buf, id[:]...)
	buf = codec.AppendBlock(buf, b)
	return buf, endFrame(buf, body, n)
}

// appendStateFrame appends rec's state frame; the suffix travels as
// block IDs.
func appendStateFrame(buf []byte, rec *Record) ([]byte, error) {
	n := 2 + 4*8 + codec.QCSize(rec.HighQC) + 4 + len(rec.Suffix)*idLen
	buf, body, err := beginFrame(buf, n, kindState)
	if err != nil {
		return buf, err
	}
	for _, v := range [...]types.View{rec.CurView, rec.LastVoted, rec.Preferred, rec.LastTimeout} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = codec.AppendQC(buf, rec.HighQC)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Suffix)))
	for _, b := range rec.Suffix {
		id := b.ID()
		buf = append(buf, id[:]...)
	}
	return buf, endFrame(buf, body, n)
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
// frames and one state frame, atomically (write tmp, sync, rename), and
// swaps the handle onto the new file.
func (w *WAL) compactLocked() error {
	var frames []byte
	if w.latest != nil {
		var err error
		if frames, err = appendRecord(nil, w.latest, nil); err != nil {
			return err
		}
	}
	tmp := w.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if _, err := tf.Write(frames); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	// Make the rename itself durable before retiring the old handle.
	if w.sync {
		if dir, derr := os.Open(filepath.Dir(w.path)); derr == nil {
			_ = dir.Sync()
			dir.Close()
		}
	}
	old := w.f
	w.f = tf
	old.Close()
	w.sinceCompact = 0
	w.resetWritten()
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

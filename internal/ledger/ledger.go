// Package ledger persists finalized blocks: the paper's Section II
// notes that "finalized blocks can be removed from memory to persistent
// storage for garbage collection", and the forest's compaction assumes
// something downstream retains the history. A Ledger is that something:
// an append-only file of committed blocks in commit order, with a
// replay path for audits and crash recovery, and a ranged read path
// (ReadRange) that serves deep state-sync requests without replaying
// the whole file.
//
// The file is a sequence of records, one per committed block in height
// order, each in the checksummed frame the safety WAL also uses
// (internal/disk): `uvarint body length | crc32 of the body | body`. A
// body starts with a format-version byte and a kind byte, then:
//
//	block record:  height (u64), block ID (32), block, certificate for
//	               the block itself (SelfQC)
//	marker record: height (u64) — the compacted floor; only ever the
//	               first record of a file
//
// Blocks and certificates use the wire codec's field layout
// (internal/codec), so the ledger stores exactly what a sync response
// carries: each block travels with its embedded certificate and
// proposer signature, which makes a range served to a lagging replica
// verifiable as a certified chain. Records are self-contained, so a
// reopened ledger keeps appending and one replay reads across
// sessions. An append encodes into a buffer the ledger reuses and
// issues one write; it runs on the replica's commit path and is
// synchronous but cheap, and a deployment wanting group commit can use
// OpenBuffered.
//
// Crash recovery follows the usual write-ahead-log rule: a truncated
// final record is the footprint of a crash mid-append, so replay stops
// cleanly at the last intact record and Open truncates the damaged
// tail before appending. A record that is structurally complete but
// fails its checksum or its decode, or a broken height/parent chain,
// is real corruption and is reported as an error, as is a record whose
// version byte this build does not know — there is no reader for older
// formats (no ledger outlives the deployment that wrote it). A block
// read back is served only if it hashes to the ID recorded beside it;
// the payload commitment is re-derived from the stored payload for
// that check.
package ledger

import (
	"bufio"
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

// Errors reported by the ranged read path.
var (
	ErrEmptyRange = errors.New("ledger: empty range")
	ErrPastHead   = errors.New("ledger: range starts past the persisted head")
	// ErrCompacted reports a range starting at or below the
	// compacted floor: the prefix was dropped because a snapshot
	// covers it, and the caller must fall back to snapshot transfer.
	ErrCompacted = errors.New("ledger: range below the compacted floor")
)

// version is the format-version byte every record body starts with.
const version = 2

// errVersion marks a record written in a format this build does not
// read, so the walks can report it as that and not as corruption.
var errVersion = errors.New("unsupported format version")

// maxRecord bounds a record body: no block comes near it, so a larger
// length prefix is corruption, and it keeps such a prefix from driving
// a giant allocation. AppendCertified refuses to write a record this
// bound would reject on the way back in.
const maxRecord = 1 << 30

// keepBuf is the encode-buffer capacity above which an append drops
// the buffer instead of keeping it for the next one: one oversized
// block must not pin its high-water capacity for the life of the
// ledger.
const keepBuf = 1 << 20

// Record kinds, the second byte of a body.
const (
	kindBlock  = 1
	kindMarker = 2
)

// record is one decoded record: a persisted block, or — when block is
// nil — the compaction marker that heads a compacted file.
type record struct {
	// height is the block's height, or for a marker the compacted
	// floor: every height at or below it was dropped because a snapshot
	// covers it.
	height uint64
	// id is the block's identity as recorded at append time.
	id types.Hash
	// block carries the embedded certificate (certifying the parent) and
	// the proposer's signature, so a read range is verifiable as a
	// certified chain. Its payload digest is left for ID() to re-derive
	// from the payload.
	block *types.Block
	// selfQC is a certificate for THIS block (the one that justified
	// committing it). Restart replay needs it for the replayed head:
	// without a certificate in hand for the tip, a rebooted leader
	// could only propose on top of the grandparent — stale at every
	// peer — and the cluster would stall. Nil when the appender had
	// none.
	selfQC *types.QC
}

// appendBlockRecord appends the framed record of b at height.
func appendBlockRecord(buf []byte, b *types.Block, height uint64, selfQC *types.QC) ([]byte, error) {
	id := b.ID()
	n := 2 + 8 + len(id) + codec.BlockSize(b) + codec.QCSize(selfQC)
	buf, err := disk.AppendFrame(buf, n, maxRecord, func(p []byte) []byte {
		p = append(p, version, kindBlock)
		p = binary.LittleEndian.AppendUint64(p, height)
		p = append(p, id[:]...)
		p = codec.AppendBlock(p, b)
		return codec.AppendQC(p, selfQC)
	})
	if err != nil {
		return buf, fmt.Errorf("ledger: record: %w", err)
	}
	return buf, nil
}

// markerFrame encodes a compaction marker for the given floor as one
// framed record.
func markerFrame(base uint64) []byte {
	// Ten bytes, sized right, never past the limit: no error to handle.
	buf, _ := disk.AppendFrame(nil, 2+8, maxRecord, func(p []byte) []byte {
		return binary.LittleEndian.AppendUint64(append(p, version, kindMarker), base)
	})
	return buf
}

// decodeRecord parses one record body. It allocates no more than the
// body's own length beyond the decoded structs.
func decodeRecord(body []byte) (record, error) {
	var rec record
	if len(body) < 2 {
		return rec, errors.New("short record")
	}
	if body[0] != version {
		return rec, fmt.Errorf("%w %d, this build reads only version %d", errVersion, body[0], version)
	}
	r := codec.NewReader(body[2:])
	rec.height = r.U64()
	switch body[1] {
	case kindMarker:
	case kindBlock:
		rec.id, rec.block, rec.selfQC = r.Hash(), r.Block(), r.QC()
	default:
		return rec, fmt.Errorf("unknown record kind %d", body[1])
	}
	if err := r.Err(); err != nil {
		return rec, err
	}
	if body[1] == kindBlock {
		if rec.block == nil {
			return rec, errors.New("block record without a block")
		}
		// Recorded for the wire layout's sake only: identity checks must
		// cover the payload that is actually here.
		rec.block.Digest = types.Hash{}
	}
	return rec, nil
}

// Ledger is an append-only store of committed blocks whose prefix can
// be compacted away once a state snapshot covers it.
type Ledger struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	w        io.Writer
	flush    func() error
	buffered bool
	// base is the compacted floor: heights at or below it are gone
	// from the file (served by the snapshot instead). Zero means the
	// file still reaches back to height 1.
	base   uint64
	height uint64
	// offsets[h-base-1] is the file offset of the record for height
	// h — the height index behind ReadRange. Retained heights are
	// contiguous from base+1, so a slice is the whole index.
	offsets []int64
	// size is the current end-of-file offset (all appends accounted).
	size int64
	// gen counts file swaps (compaction, reset) and tail truncations.
	// ReadRange snapshots it with the offsets and re-checks after
	// opening its descriptor: the file was append-only before
	// compaction existed, and a swap between offset lookup and open
	// would otherwise point the read into a rewritten file.
	gen uint64
	// buf is the encode buffer, reused across appends.
	buf    []byte
	closed bool
}

// Open creates (or appends to) the ledger at path. If the file already
// contains records, the ledger resumes from the last height; a
// truncated tail left by a crash mid-append is cut off first.
func Open(path string) (*Ledger, error) {
	return open(path, false)
}

// OpenBuffered is Open with a write buffer: appends become group
// commits flushed on Sync/Close (faster, weaker durability).
func OpenBuffered(path string) (*Ledger, error) {
	return open(path, true)
}

func open(path string, buffered bool) (*Ledger, error) {
	sc, err := walk(path, nil)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if sc.truncated {
		// Crash footprint: drop the partial record so the next append
		// does not interleave with garbage.
		if err := os.Truncate(path, sc.end); err != nil {
			return nil, fmt.Errorf("ledger: recover tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{path: path, f: f, buffered: buffered,
		base: sc.base, height: sc.height, offsets: sc.offsets, size: sc.end}
	l.resetWriter()
	return l, nil
}

// resetWriter (re)builds the write path onto l.f, preserving the
// buffered-or-not choice made at Open.
func (l *Ledger) resetWriter() {
	if l.buffered {
		bw := bufio.NewWriterSize(l.f, 1<<16)
		l.w = bw
		l.flush = bw.Flush
	} else {
		l.w = l.f
		l.flush = func() error { return nil }
	}
}

// AppendCertified persists a committed block at the next height with a
// certificate for the block itself (available on every commit path:
// the next committed block's embedded certificate, or the forest's
// certification record; nil when there is none). Blocks must arrive in
// commit order; a skipped or repeated height is rejected, because the
// on-disk chain must mirror the committed chain exactly. The
// certificate is what lets restart replay hand the rebooted replica a
// certified chain tip to build on.
func (l *Ledger) AppendCertified(b *types.Block, height uint64, selfQC *types.QC) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ledger: closed")
	}
	if height != l.height+1 {
		return fmt.Errorf("ledger: non-contiguous append: height %d after %d", height, l.height)
	}
	buf, err := appendBlockRecord(l.buf[:0], b, height, selfQC)
	if cap(buf) <= keepBuf {
		l.buf = buf
	} else {
		l.buf = nil
	}
	if err != nil {
		return err
	}
	if _, err := l.w.Write(buf); err != nil {
		return fmt.Errorf("ledger: append: %w", err)
	}
	l.offsets = append(l.offsets, l.size)
	l.size += int64(len(buf))
	l.height = height
	return nil
}

// Height returns the last persisted height.
func (l *Ledger) Height() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.height
}

// Base returns the compacted floor: the height at or below which
// records have been dropped because a snapshot covers them. Zero
// means the whole chain from height 1 is still on disk.
func (l *Ledger) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// CompactTo drops every record at heights at or below `to`, leaving a
// compaction marker so a reopened ledger knows its floor. Call it
// once a snapshot covers the prefix — deep catch-up for the dropped
// heights is then served by snapshot transfer instead. Compacting at
// or below the current floor is a no-op; compacting past the head is
// rejected. The rewrite is an atomic, durable replace, so a crash
// mid-compaction leaves the previous file intact.
func (l *Ledger) CompactTo(to uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ledger: closed")
	}
	if to <= l.base {
		return nil
	}
	if to > l.height {
		return fmt.Errorf("ledger: compact to %d past head %d", to, l.height)
	}
	if err := l.flush(); err != nil {
		return fmt.Errorf("ledger: flush: %w", err)
	}
	// Offset of the first retained record (height to+1), or end of
	// file when everything is compacted away.
	keepStart := l.size
	if to < l.height {
		keepStart = l.offsets[to-l.base]
	}
	return l.rewrite("compact", to, keepStart)
}

// ResetTo discards the entire file and re-bases the ledger at the
// given height: the next append must be height+1. It is the install
// step of snapshot-based catch-up — after jumping the state machine
// to a snapshot, the local chain below it is another deployment's
// history as far as this file is concerned.
func (l *Ledger) ResetTo(height uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ledger: closed")
	}
	if err := l.rewrite("reset", height, l.size); err != nil {
		return err
	}
	// Unlike compaction, a reset may re-base BELOW the old head; the
	// file is empty either way.
	l.height = height
	l.offsets = nil
	return nil
}

// rewrite replaces the file with a marker for newBase followed by the
// records from file offset keepStart onward, and rewires the append
// handle and the height index. The replace is durable like a snapshot
// save: the caller has dropped, or is about to drop, the history the
// marker re-bases over, so the new file must not sit in the page cache
// when the old one is gone. Callers hold l.mu, with every record from
// keepStart onward flushed to the file.
func (l *Ledger) rewrite(op string, newBase uint64, keepStart int64) error {
	marker := markerFrame(newBase)
	f, err := disk.Replace(l.path, true, func(w io.Writer) error {
		if _, err := w.Write(marker); err != nil {
			return err
		}
		src, err := os.Open(l.path)
		if err != nil {
			return err
		}
		defer func() { _ = src.Close() }() // read only
		_, err = io.Copy(w, io.NewSectionReader(src, keepStart, l.size-keepStart))
		return err
	})
	if f == nil {
		return fmt.Errorf("ledger: %s: %w", op, err)
	}
	// The new file is in place even if err reports its directory sync:
	// follow it, then report.
	_ = l.f.Close() // flushed by the caller, and replaced either way
	l.f = f
	l.resetWriter()
	// Records formerly at file offset keepStart onward now live right
	// after the marker, and heights at or below newBase are gone.
	markerLen := int64(len(marker))
	var kept []int64
	if keepStart < l.size && newBase >= l.base {
		if drop := int(newBase - l.base); drop < len(l.offsets) {
			kept = make([]int64, 0, len(l.offsets)-drop)
			for _, off := range l.offsets[drop:] {
				kept = append(kept, markerLen+(off-keepStart))
			}
		}
	}
	l.offsets = kept
	l.size = markerLen + (l.size - keepStart)
	l.base = newBase
	l.gen++
	if l.height < newBase {
		l.height = newBase
	}
	if err != nil {
		return fmt.Errorf("ledger: %s: %w", op, err)
	}
	return nil
}

// Sync flushes buffered records to the file.
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flush(); err != nil {
		return fmt.Errorf("ledger: flush: %w", err)
	}
	return l.f.Sync()
}

// Close flushes and closes the file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.flush(); err != nil {
		return fmt.Errorf("ledger: flush: %w", err)
	}
	return l.f.Close()
}

// ReadRange returns the persisted blocks at heights [from, to] in
// height order, seeking straight to the first record through the
// height index instead of replaying the file. A `to` beyond the
// persisted head is clamped to it; a `from` past the head returns
// ErrPastHead, a `from` at or below the compacted floor returns
// ErrCompacted (the caller's cue to fall back to snapshot transfer),
// and an inverted range returns ErrEmptyRange. Returned blocks carry
// their certificate and proposer signature, so a sync response built
// from them is verifiable end to end. A compaction racing the read
// (the apply stage rewrites the file, the event loop serves from it)
// is detected through the swap generation and the read retried
// against the fresh index.
func (l *Ledger) ReadRange(from, to uint64) ([]*types.Block, error) {
	for attempt := 0; ; attempt++ {
		blocks, raced, err := l.readRange(from, to)
		if raced && attempt < 3 {
			continue
		}
		return blocks, err
	}
}

// readRange is one ReadRange attempt; raced reports that the file was
// swapped between the offset lookup and the open, invalidating the
// offset (the caller retries against the new index).
func (l *Ledger) readRange(from, to uint64) (_ []*types.Block, raced bool, _ error) {
	l.mu.Lock()
	if from == 0 || from > to {
		l.mu.Unlock()
		return nil, false, ErrEmptyRange
	}
	if from <= l.base {
		l.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %d at floor %d", ErrCompacted, from, l.base)
	}
	if from > l.height {
		l.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %d > %d", ErrPastHead, from, l.height)
	}
	if to > l.height {
		to = l.height
	}
	// Flush so a buffered appender's records are visible to the read
	// below; the read uses its own descriptor, leaving the append
	// position untouched.
	if err := l.flush(); err != nil {
		l.mu.Unlock()
		return nil, false, fmt.Errorf("ledger: flush: %w", err)
	}
	start := l.offsets[from-l.base-1]
	gen := l.gen
	path := l.path
	l.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("ledger: %w", err)
	}
	defer func() { _ = f.Close() }()
	// If the file was swapped before the open, the descriptor is the
	// NEW file and the offset belongs to the old one. Once this check
	// passes, later swaps are harmless: the rename leaves this open
	// descriptor on the pre-swap inode, whose layout the offset
	// matches.
	l.mu.Lock()
	raced = l.gen != gen
	l.mu.Unlock()
	if raced {
		return nil, true, fmt.Errorf("ledger: read raced a compaction")
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return nil, false, fmt.Errorf("ledger: seek: %w", err)
	}
	fr := disk.NewReader(f, maxRecord)
	out := make([]*types.Block, 0, to-from+1)
	for h := from; h <= to; h++ {
		body, _, st, err := fr.Next()
		if st != disk.OK && err == nil {
			err = errors.New("unexpected end of file")
		}
		var rec record
		if err == nil {
			rec, err = decodeRecord(body)
		}
		if err != nil {
			return nil, false, fmt.Errorf("ledger: read height %d: %w", h, err)
		}
		if rec.block == nil || rec.height != h {
			return nil, false, fmt.Errorf("ledger: index skew: record %d where %d expected", rec.height, h)
		}
		if err := rec.verify(); err != nil {
			return nil, false, fmt.Errorf("ledger: height %d: %w", h, err)
		}
		out = append(out, rec.block)
	}
	return out, false, nil
}

// verify checks that the persisted block is servable: it carries its
// certificate and hashes back to the recorded identity — the cheap
// integrity check that keeps a bit-rotted record from being served.
func (rec *record) verify() error {
	if rec.block.QC == nil {
		return errors.New("record has no embedded certificate")
	}
	if rec.block.ID() != rec.id {
		return errors.New("record identity mismatch")
	}
	return nil
}

// Replay streams the persisted chain in commit order, reconstructing
// blocks and verifying that heights are contiguous and parent hashes
// chain correctly. fn receives each block and its height. A compacted
// file replays its retained suffix (the compaction marker is skipped;
// the first retained record's parent is the snapshot block, outside
// the file, so its parent link is not checked). A truncated final
// record (crash mid-append) ends the replay cleanly at the last
// intact record; structural corruption is reported as an error.
func Replay(path string, fn func(b *types.Block, height uint64) error) error {
	_, err := walk(path, func(rec *record) error { return fn(rec.block, rec.height) })
	return err
}

// ReplayCertified is Replay over this ledger's retained records,
// handing back each record's own certificate alongside the block (nil
// when the appender had none). It flushes buffered appends first so
// the walk sees every persisted height, and reads through its own
// descriptor — the append position is untouched. It is the
// restart-replay entry point: a rebooted replica rebuilds forest and
// state machine from it before joining, and the final record's
// certificate is what lets it extend the replayed tip.
func (l *Ledger) ReplayCertified(fn func(b *types.Block, height uint64, selfQC *types.QC) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("ledger: closed")
	}
	if err := l.flush(); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("ledger: flush: %w", err)
	}
	path := l.path
	l.mu.Unlock()
	_, err := walk(path, func(rec *record) error { return fn(rec.block, rec.height, rec.selfQC) })
	return err
}

// TruncateTo drops every record above the given height — the restart
// bootstrap's rollback for replayed-but-held-back tail blocks, which
// stay uncommitted until the live chain re-certifies them (and must
// therefore be re-appendable). Truncating at or above the head is a
// no-op; truncating below the compacted floor is rejected.
func (l *Ledger) TruncateTo(height uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ledger: closed")
	}
	if height >= l.height {
		return nil
	}
	if height < l.base {
		return fmt.Errorf("ledger: truncate to %d below floor %d", height, l.base)
	}
	if err := l.flush(); err != nil {
		return fmt.Errorf("ledger: flush: %w", err)
	}
	cut := l.offsets[height-l.base]
	if err := os.Truncate(l.path, cut); err != nil {
		return fmt.Errorf("ledger: truncate: %w", err)
	}
	l.offsets = l.offsets[:height-l.base]
	l.size = cut
	l.height = height
	l.gen++
	return nil
}

// recordError words a record that failed to read, met after the given
// height.
func recordError(after uint64, err error) error {
	if errors.Is(err, errVersion) {
		return fmt.Errorf("ledger: record after height %d: %w", after, err)
	}
	return fmt.Errorf("ledger: corrupt record after height %d: %w", after, err)
}

// scanResult summarizes a file walk: the height index, the end offset
// of the last intact record, the resume height, the compacted floor,
// and whether a torn tail follows.
type scanResult struct {
	offsets   []int64
	end       int64
	base      uint64
	height    uint64
	truncated bool
}

// walk reads the file at path record by record, building the height
// index and finding the safe append point, and hands fn (when not nil)
// each block record. It enforces the chain structure: contiguous
// heights, each record's parent naming its predecessor. A compacted
// file leads with its marker, which re-bases the expected heights; the
// first retained record's parent (the snapshot block) is outside the
// file and goes unchecked. A torn final record ends the walk cleanly;
// a ledger with garbage or a broken link in the middle must not
// silently resume, replay or be served to catch-up peers, and is an
// error.
func walk(path string, fn func(*record) error) (scanResult, error) {
	var sc scanResult
	f, err := os.Open(path)
	if err != nil {
		return sc, err
	}
	defer func() { _ = f.Close() }() // read only
	fr := disk.NewReader(f, maxRecord)
	var prevID types.Hash
	for first := true; ; first = false {
		body, n, st, err := fr.Next()
		switch st {
		case disk.End:
			return sc, nil
		case disk.Torn:
			sc.truncated = true
			return sc, nil
		case disk.Corrupt:
			return sc, recordError(sc.height, err)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return sc, recordError(sc.height, err)
		}
		if rec.block == nil {
			if !first {
				return sc, fmt.Errorf("ledger: compaction marker after height %d", sc.height)
			}
			sc.base, sc.height = rec.height, rec.height
			sc.end += n
			continue
		}
		if rec.height != sc.height+1 {
			return sc, fmt.Errorf("ledger: height gap: %d after %d", rec.height, sc.height)
		}
		if sc.height > sc.base && rec.block.Parent != prevID {
			return sc, fmt.Errorf("ledger: broken chain at height %d", rec.height)
		}
		if fn != nil {
			if err := fn(&rec); err != nil {
				return sc, err
			}
		}
		sc.offsets = append(sc.offsets, sc.end)
		sc.height = rec.height
		sc.end += n
		prevID = rec.id
	}
}

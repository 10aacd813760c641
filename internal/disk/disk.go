// Package disk is the on-disk record layer the ledger and the safety
// WAL share: one checksummed frame, the writer that appends it and the
// streaming reader that reads it back, plus the atomic replace every
// file rewrite goes through (ledger compaction and reset, WAL
// compaction, snapshot save).
//
// A frame is `uvarint body length | crc32 (IEEE, little-endian) of the
// body | body`. The body starts with its owner's format-version and
// kind bytes, which this package leaves to the owner. A frame that runs
// past the end of the file is a torn tail, the footprint of a crash
// mid-append, which the owner cuts off; a frame whose length is
// implausible or whose body fails its checksum is corruption.
package disk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// AppendFrame appends one frame whose body is the n bytes body appends
// to the slice it is given. It refuses a body larger than limit, the
// bound the owner's Reader enforces, so nothing is written that could
// not be read back. body must not retain its argument; given a buffer
// with room for the frame, AppendFrame does not allocate.
func AppendFrame(buf []byte, n, limit int, body func([]byte) []byte) ([]byte, error) {
	if n > limit {
		return buf, fmt.Errorf("%d-byte frame exceeds the %d-byte limit", n, limit)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = append(buf, 0, 0, 0, 0) // checksum, filled in below
	start := len(buf)
	buf = body(buf)
	if len(buf)-start != n {
		// The codec's size and append functions are tested to agree; a
		// mismatch is a codec bug, and a mis-framed body would poison
		// every later frame.
		return buf, fmt.Errorf("internal: frame sized %d, encoded %d", n, len(buf)-start)
	}
	binary.LittleEndian.PutUint32(buf[start-4:], crc32.ChecksumIEEE(buf[start:]))
	return buf, nil
}

// Status classifies the outcome of reading one frame.
type Status int

const (
	// OK is an intact frame.
	OK Status = iota
	// End is a clean end of input on a frame boundary.
	End
	// Torn is a final frame cut short: a crash mid-append, not
	// corruption.
	Torn
	// Corrupt is a frame with an implausible length or a body that
	// fails its checksum, or a read that failed.
	Corrupt
)

// Reader reads frames off a stream, reusing one body buffer.
type Reader struct {
	br    *bufio.Reader
	limit int
	buf   []byte
}

// NewReader reads frames from r, treating a body longer than limit as
// corruption.
func NewReader(r io.Reader, limit int) *Reader {
	return &Reader{br: bufio.NewReader(r), limit: limit}
}

// Next reads one frame. It returns the body, valid until the next call,
// and the frame's length on disk, header included; err says what is
// wrong when the status is Corrupt.
func (r *Reader) Next() (body []byte, n int64, st Status, err error) {
	head, perr := r.br.Peek(binary.MaxVarintLen64)
	if len(head) == 0 {
		if perr == io.EOF {
			return nil, 0, End, nil
		}
		return nil, 0, Corrupt, perr
	}
	size, vn := binary.Uvarint(head)
	switch {
	case vn == 0 && perr == io.EOF:
		return nil, 0, Torn, nil
	case vn == 0 && perr != nil:
		return nil, 0, Corrupt, perr
	case vn <= 0:
		return nil, 0, Corrupt, errors.New("frame length overflows 64 bits")
	case size > uint64(r.limit):
		return nil, 0, Corrupt, fmt.Errorf("implausible frame length %d", size)
	}
	if _, err := r.br.Discard(vn); err != nil {
		return nil, 0, Corrupt, err
	}
	need := 4 + int(size)
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	frame := r.buf[:need]
	if _, err := io.ReadFull(r.br, frame); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, Torn, nil
		}
		return nil, 0, Corrupt, err
	}
	if crc32.ChecksumIEEE(frame[4:]) != binary.LittleEndian.Uint32(frame) {
		return nil, 0, Corrupt, errors.New("checksum mismatch")
	}
	return frame[4:], int64(vn + need), OK, nil
}

// syncFile is (*os.File).Sync; tests swap it to count syncs.
var syncFile = (*os.File).Sync

// Replace atomically replaces the file at path with what write puts
// into a temporary file beside it, and returns the new file open for
// appending. When durable, the temporary file is synced before the
// rename and the directory after it: a crash leaves the old file or
// the whole new one, and once Replace returns the new one outlives the
// machine. Otherwise nothing is synced, and the new file survives only
// the process.
//
// A nil file means path still holds the old file. A non-nil file with
// an error means the rename took effect but the directory sync failed:
// path holds the new file, which the caller adopts, but it may not
// survive a machine crash.
func Replace(path string, durable bool, write func(io.Writer) error) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err = write(f); err == nil && durable {
		err = syncFile(f)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return nil, err
	}
	if durable {
		dir, err := os.Open(filepath.Dir(path))
		if err != nil {
			return f, err
		}
		err = syncFile(dir)
		_ = dir.Close() // opened read-only for the sync
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

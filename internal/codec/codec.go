// Package codec serializes protocol messages for the TCP transport
// with a hand-rolled, versioned binary wire format. Every message in
// the internal/types wire registry encodes as explicit little-endian
// fields behind a fixed frame header: no per-connection type
// dictionaries, no reflection on the hot path, and no per-message
// allocations beyond the decoded message itself (encode and decode
// stage through pooled buffers).
//
// Frame layout (all integers little-endian):
//
//	offset 0  u32  payload length (bytes after this word, ≤ MaxFrame)
//	offset 4  u8   format version (types.WireVersion)
//	offset 5  u8   message tag (types.WireTag)
//	offset 6  u32  sender NodeID
//	offset 10 ...  message body (see wire.go)
//
// Frames are self-delimiting and stateless, so a malformed or
// oversized frame costs exactly one frame: the decoder consumes it,
// reports a Recoverable error, and the next Decode starts clean at
// the following frame. This is what lets the TCP transport drop one
// message instead of discarding the connection. A frame from an older
// wire version, or carrying a retired tag, is such a frame.
//
// Decoding is untrusting: every field read is length-checked against
// the frame, slice counts are bounded by the bytes actually present
// before any allocation, and byte fields are carved from one
// frame-sized arena — a hostile peer cannot make the reader allocate
// past MaxFrame per frame, not even transiently.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// MaxFrame bounds one frame's payload. The largest legitimate
// messages are state-sync batches (a keep window of full blocks) and
// snapshot chunks; 16 MiB leaves an order of magnitude of headroom.
const MaxFrame = 16 << 20

// frameHeader is the fixed prefix before the message body: the u32
// payload length plus the version, tag, and sender fields the length
// covers.
const (
	frameHeader     = 10
	framePayloadMin = frameHeader - 4 // version + tag + sender
)

// Frame-level errors. All of them are Recoverable: the decoder has
// consumed the offending frame (or the encoder has written nothing),
// so the stream remains usable and only one message is lost.
var (
	// ErrFrameTooLarge reports a frame above MaxFrame, on either end.
	ErrFrameTooLarge = errors.New("codec: frame exceeds MaxFrame")
	// ErrBadFrame reports a frame whose body does not parse.
	ErrBadFrame = errors.New("codec: malformed frame")
	// ErrBadVersion reports a frame carrying a wire version this
	// decoder does not speak.
	ErrBadVersion = errors.New("codec: unsupported frame version")
	// ErrUnknownTag reports a frame carrying an unregistered tag.
	ErrUnknownTag = errors.New("codec: unknown message tag")
	// ErrUnknownMessage reports an encode of a type with no wire tag.
	ErrUnknownMessage = errors.New("codec: unregistered message type")
)

// Recoverable reports whether err cost one frame rather than the
// stream: the caller may keep encoding/decoding on the same
// connection after counting the message as dropped. I/O errors and
// truncated streams are not recoverable.
func Recoverable(err error) bool {
	return errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, ErrBadFrame) ||
		errors.Is(err, ErrBadVersion) ||
		errors.Is(err, ErrUnknownTag) ||
		errors.Is(err, ErrUnknownMessage)
}

// Envelope frames a message with its sender for transports that
// multiplex many logical links over one connection.
type Envelope struct {
	From types.NodeID
	Msg  any
}

// shrinkCap is the staging-buffer capacity above which the pool drops
// a buffer instead of retaining it: one multi-MiB frame (a deep
// state-sync batch) must not pin its high-water capacity forever.
const shrinkCap = 1 << 20

// bufPool recycles encode staging and decode frame buffers. It holds
// *[]byte so Put never allocates an interface box.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// getBuf returns a pooled buffer with capacity ≥ n and length 0.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

// putBuf recycles a buffer, dropping it when an oversized frame grew
// it past shrinkCap — capacity policy lives here, in the pool's
// lifecycle, not in the middle of Encode. It reports whether the
// buffer was retained so the policy is testable.
func putBuf(bp *[]byte) bool {
	if cap(*bp) > shrinkCap {
		return false
	}
	bufPool.Put(bp)
	return true
}

// Encoder writes envelopes to a stream as self-delimiting frames. It
// is not safe for concurrent use; guard it with the connection's
// write lock.
//
// Encode buffers; call Flush to push the bytes to the underlying
// writer. Separating the two is what enables write coalescing: a
// transport can drain its whole send queue through Encode and pay one
// syscall at the Flush.
type Encoder struct {
	w *bufio.Writer
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 64<<10)}
}

// Encode appends one envelope to the write buffer and returns the
// frame's exact wire size. The size is computed before a byte is
// staged, so an oversized or unregistered message returns a
// Recoverable error with nothing written — the stream stays clean and
// the connection survives.
func (e *Encoder) Encode(env Envelope) (int, error) {
	tag, ok := types.WireTagOf(env.Msg)
	if !ok {
		return 0, fmt.Errorf("codec: %T: %w", env.Msg, ErrUnknownMessage)
	}
	payload := framePayloadMin + bodySize(env.Msg)
	if payload > MaxFrame {
		return 0, fmt.Errorf("codec: %d-byte message: %w", payload, ErrFrameTooLarge)
	}
	total := 4 + payload
	bp := getBuf(total)
	b := *bp
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, types.WireVersion, byte(tag))
	b = binary.LittleEndian.AppendUint32(b, uint32(env.From))
	b = appendBody(b, env.Msg)
	*bp = b
	if len(b) != total {
		// Size and encode are generated in lockstep and tested for
		// equality over every registered message; disagreement means a
		// codec bug, and silently sending a mis-framed message would
		// desync the peer.
		putBuf(bp)
		return 0, fmt.Errorf("codec: internal: %T sized %d, encoded %d", env.Msg, total, len(b))
	}
	_, err := e.w.Write(b)
	putBuf(bp)
	if err != nil {
		return 0, fmt.Errorf("codec: write frame: %w", err)
	}
	return total, nil
}

// Flush pushes buffered frames to the underlying writer.
func (e *Encoder) Flush() error {
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("codec: flush: %w", err)
	}
	return nil
}

// EncodedSize returns the exact number of bytes msg occupies on the
// wire (header included), or false for unregistered types. The
// in-process switch charges this against modeled link bandwidth, so
// both backends account identical bytes for identical messages.
func EncodedSize(msg any) (int, bool) {
	if _, ok := types.WireTagOf(msg); !ok {
		return 0, false
	}
	return frameHeader + bodySize(msg), true
}

// Decoder reads envelopes from a stream of frames.
type Decoder struct {
	r   *bufio.Reader
	hdr [4]byte
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	return &Decoder{r: br}
}

// Decode reads one envelope. It returns io.EOF unchanged when the
// stream ends cleanly at a frame boundary, so callers can distinguish
// shutdown from damage. A Recoverable error means exactly one frame
// was consumed and discarded; the next Decode reads the next frame.
// Any other error means the stream is dead.
func (d *Decoder) Decode() (Envelope, error) {
	var env Envelope
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return env, io.EOF
		}
		return env, fmt.Errorf("codec: read frame header: %w", err)
	}
	payload := int(binary.LittleEndian.Uint32(d.hdr[:]))
	if payload > MaxFrame {
		// Skip the frame instead of killing the stream: honest peers
		// never send one, and a hostile peer must actually transmit
		// the announced bytes for us to discard them.
		if err := d.skip(payload); err != nil {
			return env, err
		}
		return env, fmt.Errorf("codec: %d-byte frame announced: %w", payload, ErrFrameTooLarge)
	}
	if payload < framePayloadMin {
		if err := d.skip(payload); err != nil {
			return env, err
		}
		return env, fmt.Errorf("codec: %d-byte frame payload: %w", payload, ErrBadFrame)
	}
	bp := getBuf(payload)
	buf := (*bp)[:payload]
	*bp = buf
	defer putBuf(bp)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return env, fmt.Errorf("codec: read frame: %w", err)
	}
	if buf[0] != types.WireVersion {
		return env, fmt.Errorf("codec: frame version %d: %w", buf[0], ErrBadVersion)
	}
	tag := types.WireTag(buf[1])
	from := types.NodeID(binary.LittleEndian.Uint32(buf[2:6]))
	msg, err := decodeBody(tag, buf[framePayloadMin:])
	if err != nil {
		return env, err
	}
	return Envelope{From: from, Msg: msg}, nil
}

// skip discards one announced frame so the stream stays aligned.
func (d *Decoder) skip(n int) error {
	if _, err := d.r.Discard(n); err != nil {
		return fmt.Errorf("codec: skip %d-byte frame: %w", n, err)
	}
	return nil
}

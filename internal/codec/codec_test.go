package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// encodeFrame writes one envelope and flushes, returning the frame's
// reported wire size.
func encodeFrame(t testing.TB, buf *bytes.Buffer, env Envelope) int {
	t.Helper()
	enc := NewEncoder(buf)
	n, err := enc.Encode(env)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return n
}

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	encodeFrame(t, &buf, Envelope{From: 3, Msg: msg})
	env, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if env.From != 3 {
		t.Fatalf("sender lost: %v", env.From)
	}
	return env.Msg
}

func TestProposalRoundTrip(t *testing.T) {
	block := &types.Block{
		View:     9,
		Proposer: 2,
		Parent:   types.Hash{1, 2},
		QC: &types.QC{
			View:    8,
			BlockID: types.Hash{1, 2},
			Signers: []types.NodeID{1, 2, 3},
			Sigs:    [][]byte{{9}, {8}, {7}},
		},
		Payload: []types.Transaction{
			{ID: types.TxID{Client: 4, Seq: 2}, Command: []byte("put k v"), SubmitUnixNano: 12345},
		},
		Sig: []byte{0xaa},
	}
	wantID := block.ID()
	got, ok := roundTrip(t, types.ProposalMsg{Block: block}).(types.ProposalMsg)
	if !ok {
		t.Fatal("wrong type decoded")
	}
	if got.Block.ID() != wantID {
		t.Fatalf("block ID changed across wire: %s vs %s", got.Block.ID(), wantID)
	}
	if !reflect.DeepEqual(got.Block.QC, block.QC) {
		t.Fatalf("QC mangled: %+v", got.Block.QC)
	}
	if got.Block.Payload[0].SubmitUnixNano != 12345 {
		t.Fatal("tx timestamp lost")
	}
}

// TestSyncResponseRoundTrip: catch-up batches carry whole certified
// blocks; identity, certificate, and payload must survive the wire,
// because the receiver re-verifies all three.
func TestSyncResponseRoundTrip(t *testing.T) {
	qc := &types.QC{View: 6, BlockID: types.Hash{7}, Signers: []types.NodeID{1, 2, 3}, Sigs: [][]byte{{1}, {2}, {3}}}
	block := &types.Block{
		View:     7,
		Proposer: 3,
		Parent:   types.Hash{7},
		QC:       qc,
		Payload:  []types.Transaction{{ID: types.TxID{Client: 2, Seq: 9}, Command: []byte("set k v")}},
		Sig:      []byte{0xbb},
	}
	wantID := block.ID()
	msg := types.SyncResponseMsg{From: 41, Blocks: []*types.Block{block}, Head: 99}
	got, ok := roundTrip(t, msg).(types.SyncResponseMsg)
	if !ok {
		t.Fatal("wrong type decoded")
	}
	if got.From != 41 || got.Head != 99 || len(got.Blocks) != 1 {
		t.Fatalf("framing mangled: %+v", got)
	}
	if got.Blocks[0].ID() != wantID {
		t.Fatal("block identity changed across the wire")
	}
	if !reflect.DeepEqual(got.Blocks[0].QC, qc) {
		t.Fatalf("certificate mangled: %+v", got.Blocks[0].QC)
	}
}

func TestStreamOfMessages(t *testing.T) {
	// A single encoder/decoder pair must survive many messages on one
	// stream, as the TCP transport keeps connections open — and many
	// Encodes behind one Flush is exactly the transport's write
	// coalescing path.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	const count = 100
	for i := 0; i < count; i++ {
		msg := types.VoteMsg{Vote: &types.Vote{View: types.View(i), Voter: 1}}
		if _, err := enc.Encode(Envelope{From: 1, Msg: msg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	for i := 0; i < count; i++ {
		env, err := dec.Decode()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		vm, ok := env.Msg.(types.VoteMsg)
		if !ok || vm.Vote.View != types.View(i) {
			t.Fatalf("message %d out of order or mangled", i)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestDecodeCorruptStream(t *testing.T) {
	buf := bytes.NewBufferString("this is not a frame")
	if _, err := NewDecoder(buf).Decode(); err == nil || err == io.EOF {
		t.Fatalf("corrupt stream must fail loudly, got %v", err)
	}
}

// TestDecodeSkipsMalformedFrame: a frame that announces a sane length
// but carries garbage, a retired tag or an old version costs exactly
// that frame — the decoder consumes it, reports a Recoverable error,
// and the next frame decodes fine. This is the property that lets the
// transport drop one message instead of the connection.
func TestDecodeSkipsMalformedFrame(t *testing.T) {
	var buf bytes.Buffer
	// A well-framed payload with an unknown tag.
	buf.Write(rawFrame(types.WireVersion, 0xEE, []byte{42}))
	// A well-framed vote with a truncated body (announces more signer
	// bytes than the frame holds).
	buf.Write(rawFrame(types.WireVersion, types.TagVote, []byte{1, 99, 99}))
	// A wrong-version frame.
	buf.Write(rawFrame(99, types.TagSyncRequest, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	// Frames of the retired tags and of wire version 1.
	retired, retiredErrs := retiredFrames(t)
	for _, f := range retired {
		buf.Write(f)
	}
	// Finally a healthy frame.
	encodeFrame(t, &buf, Envelope{From: 7, Msg: types.SyncRequestMsg{From: 5}})

	dec := NewDecoder(&buf)
	for i, want := range append([]error{ErrUnknownTag, ErrBadFrame, ErrBadVersion}, retiredErrs...) {
		_, err := dec.Decode()
		if !errors.Is(err, want) {
			t.Fatalf("frame %d: want %v, got %v", i, want, err)
		}
		if !Recoverable(err) {
			t.Fatalf("frame %d: %v must be Recoverable", i, err)
		}
	}
	env, err := dec.Decode()
	if err != nil {
		t.Fatalf("healthy frame after damage: %v", err)
	}
	if q, ok := env.Msg.(types.SyncRequestMsg); !ok || q.From != 5 || env.From != 7 {
		t.Fatalf("healthy frame mangled: %+v", env)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// rawFrame builds one frame by hand: header fields as given, sender 1.
func rawFrame(version byte, tag types.WireTag, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(framePayloadMin+len(body)))
	b = append(b, version, byte(tag), 1, 0, 0, 0)
	return append(b, body...)
}

// retiredFrames returns frames a version-1 peer could send and this
// version no longer reads, each with the error it decodes as: one per
// retired tag (12 PayloadBatch, 14 Query, 15 QueryReply, 16 Slow),
// with a body of the retired layout, and a version-1 proposal whose
// body still ends in the payload-ID count that version 2 dropped.
func retiredFrames(t testing.TB) (frames [][]byte, want []error) {
	t.Helper()
	for _, r := range []struct {
		tag  types.WireTag
		size int
	}{{12, 4}, {14, 8}, {15, 48}, {16, 16}} {
		frames = append(frames, rawFrame(types.WireVersion, r.tag, make([]byte, r.size)))
		want = append(want, ErrUnknownTag)
	}
	var buf bytes.Buffer
	encodeFrame(t, &buf, Envelope{From: 1, Msg: types.ProposalMsg{Block: &types.Block{View: 3, Proposer: 1}}})
	body := append(buf.Bytes()[frameHeader:], 0, 0, 0, 0)
	return append(frames, rawFrame(1, types.TagProposal, body)), append(want, ErrBadVersion)
}

// Property: request messages round-trip for arbitrary payloads.
func TestRequestRoundTripQuick(t *testing.T) {
	f := func(client, seq uint64, cmd []byte, ts int64) bool {
		msg := types.RequestMsg{Tx: types.Transaction{
			ID: types.TxID{Client: client, Seq: seq}, Command: cmd, SubmitUnixNano: ts,
		}}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if _, err := enc.Encode(Envelope{From: 1, Msg: msg}); err != nil {
			return false
		}
		if err := enc.Flush(); err != nil {
			return false
		}
		env, err := NewDecoder(&buf).Decode()
		if err != nil {
			return false
		}
		got, ok := env.Msg.(types.RequestMsg)
		if !ok {
			return false
		}
		// The codec normalizes empty and nil byte fields to nil.
		if len(cmd) == 0 {
			return got.Tx.ID == msg.Tx.ID && len(got.Tx.Command) == 0 && got.Tx.SubmitUnixNano == ts
		}
		return reflect.DeepEqual(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeRejectsOversizedMessage: a message whose encoding exceeds
// MaxFrame must fail at the sender with ErrFrameTooLarge and write
// nothing to the stream — and because the size check runs before any
// byte is staged, the stream (and its connection) stays usable.
func TestEncodeRejectsOversizedMessage(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	huge := types.RequestMsg{Tx: types.Transaction{
		ID: types.TxID{Client: 1, Seq: 1}, Command: make([]byte, MaxFrame+1),
	}}
	_, err := enc.Encode(Envelope{From: 1, Msg: huge})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if !Recoverable(err) {
		t.Fatal("sender-side oversize must be Recoverable (conn survives)")
	}
	// The same encoder keeps working.
	if _, err := enc.Encode(Envelope{From: 1, Msg: types.SyncRequestMsg{From: 1}}); err != nil {
		t.Fatalf("encoder poisoned by oversized message: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	env, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatalf("stream after oversized reject: %v", err)
	}
	if _, ok := env.Msg.(types.SyncRequestMsg); !ok {
		t.Fatalf("unexpected message %T", env.Msg)
	}
}

// TestDecodeRejectsOversizedFrame: a header announcing more than
// MaxFrame must fail before any payload allocation, so a corrupted or
// hostile length prefix cannot commit the reader to gigabytes.
func TestDecodeRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(MaxFrame)+1)
	buf.Write(hdr)
	buf.WriteString("payload that must never be parsed")
	_, err := NewDecoder(&buf).Decode()
	if errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("announced bytes never arrived; the stream is dead, not recoverable")
	}
	if err == nil || err == io.EOF {
		t.Fatalf("oversized announcement must fail loudly, got %v", err)
	}
}

// TestDecodeSkipsOversizedFrameThenContinues: when the announced
// oversized bytes ARE all present on the stream, the decoder discards
// exactly that frame and keeps going — one lost message, not a lost
// connection.
func TestDecodeSkipsOversizedFrameThenContinues(t *testing.T) {
	var buf bytes.Buffer
	over := MaxFrame + 10
	buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(over)))
	buf.Write(make([]byte, over))
	encodeFrame(t, &buf, Envelope{From: 2, Msg: types.SyncRequestMsg{From: 9}})

	dec := NewDecoder(&buf)
	_, err := dec.Decode()
	if !errors.Is(err, ErrFrameTooLarge) || !Recoverable(err) {
		t.Fatalf("want recoverable ErrFrameTooLarge, got %v", err)
	}
	env, err := dec.Decode()
	if err != nil {
		t.Fatalf("frame after oversized skip: %v", err)
	}
	if q, ok := env.Msg.(types.SyncRequestMsg); !ok || q.From != 9 {
		t.Fatalf("frame after skip mangled: %+v", env)
	}
}

// TestLargeLegalMessageRoundTrips: framing must not get in the way of
// big-but-legitimate messages (a full sync batch is megabytes).
func TestLargeLegalMessageRoundTrips(t *testing.T) {
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	msg := types.RequestMsg{Tx: types.Transaction{
		ID: types.TxID{Client: 1, Seq: 1}, Command: payload,
	}}
	var buf bytes.Buffer
	n := encodeFrame(t, &buf, Envelope{From: 1, Msg: msg})
	if n != buf.Len() {
		t.Fatalf("Encode reported %d bytes, stream holds %d", n, buf.Len())
	}
	env, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Msg.(types.RequestMsg)
	if !ok || !bytes.Equal(got.Tx.Command, payload) {
		t.Fatal("large payload mangled across the wire")
	}
}

// TestPoolDropsOversizedBuffers: buffer capacity policy lives in the
// pool's lifecycle — Put drops a buffer an oversized frame grew past
// shrinkCap, and retains ordinary ones.
func TestPoolDropsOversizedBuffers(t *testing.T) {
	big := make([]byte, 0, shrinkCap+1)
	if putBuf(&big) {
		t.Fatal("a multi-MiB buffer must not be retained by the pool")
	}
	small := make([]byte, 0, 4096)
	if !putBuf(&small) {
		t.Fatal("an ordinary buffer must be recycled")
	}
}

// TestEncodeMultiMiBBatchDoesNotPinCapacity: after encoding a
// multi-MiB sync batch, the pool hands out buffers at ordinary
// capacity — the batch's high-water backing array was dropped at Put,
// not kept pinned for the connection's lifetime.
func TestEncodeMultiMiBBatchDoesNotPinCapacity(t *testing.T) {
	blocks := make([]*types.Block, 8)
	for i := range blocks {
		txs := make([]types.Transaction, 64)
		for j := range txs {
			txs[j] = types.Transaction{ID: types.TxID{Client: 1, Seq: uint64(j)}, Command: make([]byte, 8<<10)}
		}
		blocks[i] = &types.Block{View: types.View(i), Proposer: 1, Payload: txs}
	}
	msg := types.SyncResponseMsg{Blocks: blocks, Head: 8}
	if n, ok := EncodedSize(msg); !ok || n <= shrinkCap {
		t.Fatalf("fixture too small to exercise the shrink path: %d", n)
	}
	enc := NewEncoder(io.Discard)
	if _, err := enc.Encode(Envelope{From: 1, Msg: msg}); err != nil {
		t.Fatal(err)
	}
	// Only putBuf feeds the pool, and it filters by capacity, so any
	// buffer the pool hands back now is below the shrink threshold.
	bp := getBuf(64)
	defer putBuf(bp)
	if cap(*bp) > shrinkCap {
		t.Fatalf("pool retained a %d-byte backing array past shrinkCap", cap(*bp))
	}
}

package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/safety"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// buildChain creates n linked blocks starting from genesis.
func buildChain(n int) []*types.Block {
	parentQC := types.GenesisQC()
	out := make([]*types.Block, 0, n)
	for v := types.View(1); v <= types.View(n); v++ {
		b := safety.BuildBlock(1, v, parentQC, []types.Transaction{
			{ID: types.TxID{Client: 1, Seq: uint64(v)}, Command: []byte("cmd")},
		})
		out = append(out, b)
		parentQC = &types.QC{View: v, BlockID: b.ID()}
	}
	return out
}

func TestAppendAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := buildChain(5)
	for i, b := range blocks {
		if err := l.AppendCertified(b, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if l.Height() != 5 {
		t.Fatalf("height = %d", l.Height())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed []*types.Block
	err = Replay(path, func(b *types.Block, h uint64) error {
		replayed = append(replayed, b)
		if h != uint64(len(replayed)) {
			t.Fatalf("height %d out of order", h)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 5 {
		t.Fatalf("replayed %d blocks", len(replayed))
	}
	for i, b := range replayed {
		if b.View != blocks[i].View || len(b.Payload) != 1 {
			t.Fatalf("block %d mangled: %+v", i, b)
		}
	}
}

func TestAppendRejectsGaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	blocks := buildChain(3)
	if err := l.AppendCertified(blocks[0], 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCertified(blocks[2], 3, nil); err == nil {
		t.Fatal("height gap accepted")
	}
	if err := l.AppendCertified(blocks[0], 1, nil); err == nil {
		t.Fatal("repeat height accepted")
	}
}

func TestResumeFromExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	blocks := buildChain(4)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.AppendCertified(blocks[i], uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the ledger resumes at height 2 and accepts 3 next.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Height() != 2 {
		t.Fatalf("resumed height = %d, want 2", l2.Height())
	}
	if err := l2.AppendCertified(blocks[2], 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := Replay(path, func(*types.Block, uint64) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("replayed %d, want 3", count)
	}
}

func TestReplayDetectsBrokenChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := buildChain(2)
	if err := l.AppendCertified(blocks[0], 1, nil); err != nil {
		t.Fatal(err)
	}
	// Forge a block whose parent link does not match.
	rogue := safety.BuildBlock(2, 9, &types.QC{View: 8, BlockID: types.Hash{9}}, nil)
	if err := l.AppendCertified(rogue, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, func(*types.Block, uint64) error { return nil }); err == nil {
		t.Fatal("broken parent chain not detected")
	}
	// Reopening must refuse too: a parent-broken ledger would
	// otherwise be served to catch-up peers, who burn a batch
	// verification each before rejecting it.
	if _, err := Open(path); err == nil {
		t.Fatal("broken parent chain not detected on reopen")
	}
}

// TestTruncatedTailRecovery: a final record cut off mid-write (the
// crash-mid-append footprint) must not poison the file. Replay stops
// cleanly at the last intact record, reopening truncates the damaged
// tail, and both appends and ranged reads continue from there.
func TestTruncatedTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := buildChain(4)
	for i := 0; i < 3; i++ {
		if err := l.AppendCertified(blocks[i], uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-record.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	// Replay stops cleanly at the last intact record: two blocks, no
	// error.
	var replayed int
	if err := Replay(path, func(*types.Block, uint64) error { replayed++; return nil }); err != nil {
		t.Fatalf("truncated tail reported as corruption: %v", err)
	}
	if replayed != 2 {
		t.Fatalf("replayed %d intact records, want 2", replayed)
	}
	// Reopen: the torn tail is cut, height resumes at 2, and the next
	// append lands at 3.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Height() != 2 {
		t.Fatalf("recovered height = %d, want 2", l2.Height())
	}
	if err := l2.AppendCertified(blocks[2], 3, nil); err != nil {
		t.Fatal(err)
	}
	// The ranged read path also stops at intact records only.
	got, err := l2.ReadRange(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].ID() != blocks[2].ID() {
		t.Fatalf("post-recovery range wrong: %d blocks", len(got))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDetectsCorruption: structural damage that is NOT a torn
// tail — a length prefix rewritten to an implausible size in the
// middle of the file — must still fail loudly, for Replay and Open
// both.
func TestReplayDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range buildChain(3) {
		if err := l.AppendCertified(b, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Stomp the first record's length prefix with a varint decoding
	// far past any plausible record size.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, func(*types.Block, uint64) error { return nil }); err == nil {
		t.Fatal("corruption not detected by replay")
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corruption not detected on reopen")
	}
}

// TestFlippedPayloadByteIsCorruption: one flipped byte inside the last
// record's payload still decodes to a well-formed block, and nothing
// after it checks its hash; the record's checksum must catch it, for
// Open and Replay both, as corruption and not as a torn tail.
func TestFlippedPayloadByteIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range buildChain(3) {
		if err := l.AppendCertified(b, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(data, []byte("cmd"))
	if at < 0 {
		t.Fatal("payload command not found in the file")
	}
	data[at] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, func(*types.Block, uint64) error { return nil }); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Replay = %v, want a corruption error", err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open = %v, want a corruption error", err)
	}
}

// TestReadRangeBoundaries covers the ranged read path's edges: empty
// and inverted ranges, ranges starting past the head, clamping of the
// far end, and a range spanning a close/reopen (the height index is
// rebuilt from the file).
func TestReadRangeBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	blocks := buildChain(10)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.AppendCertified(blocks[i], uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := l.ReadRange(0, 3); err == nil {
		t.Fatal("height zero accepted")
	}
	if _, err := l.ReadRange(4, 2); !errors.Is(err, ErrEmptyRange) {
		t.Fatalf("inverted range: %v", err)
	}
	if _, err := l.ReadRange(6, 9); !errors.Is(err, ErrPastHead) {
		t.Fatalf("range past head: %v", err)
	}
	// A far end beyond the head clamps to it.
	got, err := l.ReadRange(3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID() != blocks[2].ID() || got[2].ID() != blocks[4].ID() {
		t.Fatalf("clamped range wrong: %d blocks", len(got))
	}
	for _, b := range got {
		if b.QC == nil {
			t.Fatal("range lost its certificate")
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and extend; a range spanning both sessions reads through.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	for i := 5; i < 10; i++ {
		if err := l2.AppendCertified(blocks[i], uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err = l2.ReadRange(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("cross-session range has %d blocks, want 5", len(got))
	}
	for i, b := range got {
		if b.ID() != blocks[3+i].ID() {
			t.Fatalf("cross-session range block %d mangled", i)
		}
	}
}

// TestReadRangeSeesBufferedAppends: a buffered ledger must flush
// before a ranged read, so a serving replica never hides its freshest
// committed blocks from a catch-up peer.
func TestReadRangeSeesBufferedAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := OpenBuffered(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	blocks := buildChain(3)
	for i, b := range blocks {
		if err := l.AppendCertified(b, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ReadRange(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("buffered appends invisible to range read: %d blocks", len(got))
	}
}

func TestBufferedLedgerSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l, err := OpenBuffered(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := buildChain(1)
	if err := l.AppendCertified(blocks[0], 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := Replay(path, func(*types.Block, uint64) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("synced record not visible: %d", count)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := l.AppendCertified(blocks[0], 2, nil); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestReplayMissingFile(t *testing.T) {
	err := Replay(filepath.Join(t.TempDir(), "absent"), func(*types.Block, uint64) error { return nil })
	if err == nil {
		t.Fatal("missing file not reported")
	}
}

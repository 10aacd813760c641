package ledger

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// newCompactedLedger appends `total` blocks and compacts to `floor`.
func newCompactedLedger(t *testing.T, path string, total int, floor uint64) *Ledger {
	t.Helper()
	chain := buildChain(total)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range chain {
		if err := l.AppendCertified(b, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CompactTo(floor); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCompactToSnapshotHeight: compaction drops exactly the prefix,
// keeps the suffix servable, and reports the floor through Base and
// the typed ErrCompacted.
func TestCompactToSnapshotHeight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l := newCompactedLedger(t, path, 20, 12)
	defer func() { _ = l.Close() }()

	if l.Base() != 12 || l.Height() != 20 {
		t.Fatalf("base %d height %d, want 12/20", l.Base(), l.Height())
	}
	// The retained suffix reads back intact.
	got, err := l.ReadRange(13, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("retained range has %d blocks, want 8", len(got))
	}
	// Below the floor: the typed error that triggers snapshot
	// fallback, for ranges starting anywhere in the dropped prefix.
	for _, from := range []uint64{1, 6, 12} {
		if _, err := l.ReadRange(from, 20); !errors.Is(err, ErrCompacted) {
			t.Fatalf("ReadRange(%d) = %v, want ErrCompacted", from, err)
		}
	}
	// Re-compacting at or below the floor is a no-op; past the head
	// is rejected.
	if err := l.CompactTo(5); err != nil {
		t.Fatalf("no-op compaction errored: %v", err)
	}
	if err := l.CompactTo(21); err == nil {
		t.Fatal("compaction past the head accepted")
	}
	// The height contract survives compaction: repeating the head is
	// rejected, the next height is accepted.
	if err := l.AppendCertified(got[len(got)-1], 20, nil); err == nil {
		t.Fatal("re-append of existing height accepted")
	}
	next := buildChain(21)[20]
	if err := l.AppendCertified(next, 21, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReopenAfterCompaction: the compaction marker re-bases a
// reopened ledger — resume height, floor, ranged reads, and further
// appends all line up, and Replay walks only the retained suffix.
func TestReopenAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	chain := buildChain(24)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range chain[:20] {
		if err := l.AppendCertified(b, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CompactTo(16); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if r.Base() != 16 || r.Height() != 20 {
		t.Fatalf("reopened base %d height %d, want 16/20", r.Base(), r.Height())
	}
	// Appends resume exactly where the file ended.
	for i, b := range chain[20:] {
		if err := r.AppendCertified(b, uint64(21+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.ReadRange(17, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b.ID() != chain[16+i].ID() {
			t.Fatalf("block %d has wrong identity after reopen", 17+i)
		}
		if b.QC == nil {
			t.Fatalf("block %d lost its certificate", 17+i)
		}
	}
	if _, err := r.ReadRange(16, 24); !errors.Is(err, ErrCompacted) {
		t.Fatalf("floor not enforced after reopen: %v", err)
	}
}

// TestCompactToHead: compacting everything leaves an empty, re-based
// file that still accepts the next height — the shape a snapshot
// install leaves behind via ResetTo as well.
func TestCompactToHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l := newCompactedLedger(t, path, 10, 10)
	if l.Base() != 10 || l.Height() != 10 {
		t.Fatalf("base %d height %d, want 10/10", l.Base(), l.Height())
	}
	if _, err := l.ReadRange(10, 10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("fully compacted read = %v, want ErrCompacted", err)
	}
	if _, err := l.ReadRange(11, 12); !errors.Is(err, ErrPastHead) {
		t.Fatalf("past-head read = %v, want ErrPastHead", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if r.Base() != 10 || r.Height() != 10 {
		t.Fatalf("reopened empty base %d height %d, want 10/10", r.Base(), r.Height())
	}
}

// TestResetTo: a snapshot install discards the local file outright
// and re-bases at the install height; appends continue from there and
// a reopen agrees.
func TestResetTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	chain := buildChain(6)
	l, err := OpenBuffered(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range chain {
		if err := l.AppendCertified(b, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.ResetTo(40); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 40 || l.Height() != 40 {
		t.Fatalf("after reset: base %d height %d, want 40/40", l.Base(), l.Height())
	}
	if err := l.AppendCertified(chain[0], 7, nil); err == nil {
		t.Fatal("pre-reset height accepted after reset")
	}
	// The suffix above the install height appends normally (any
	// blocks do — the ledger checks heights, not hashes, across a
	// reset boundary).
	if err := l.AppendCertified(chain[0], 41, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if r.Base() != 40 || r.Height() != 41 {
		t.Fatalf("reopened base %d height %d, want 40/41", r.Base(), r.Height())
	}
	got, err := r.ReadRange(41, 41)
	if err != nil || len(got) != 1 || got[0].ID() != chain[0].ID() {
		t.Fatalf("post-reset record unreadable: %v", err)
	}
}

// TestCompactedReplayWalksSuffix: package-level Replay (and
// ReplayCertified) skip the marker and hand back exactly the retained
// records with their recorded heights.
func TestCompactedReplayWalksSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	l := newCompactedLedger(t, path, 15, 9)
	defer func() { _ = l.Close() }()
	var first, last, count uint64
	err := l.ReplayCertified(func(_ *types.Block, h uint64, _ *types.QC) error {
		if first == 0 {
			first = h
		}
		last = h
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 10 || last != 15 || count != 6 {
		t.Fatalf("replayed [%d..%d] (%d records), want [10..15] (6)", first, last, count)
	}
}

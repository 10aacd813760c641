package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/disk"
	"github.com/bamboo-bft/bamboo/internal/types"
)

func testQC(view types.View) *types.QC {
	return &types.QC{
		View:    view,
		BlockID: types.Hash{byte(view), 0xab},
		Signers: []types.NodeID{1, 2, 3},
		Sigs:    [][]byte{{1}, {2}, {3}},
	}
}

// testBlock is deterministic in view: two calls build blocks with the
// same ID, the way consecutive records name the same block.
func testBlock(view types.View) *types.Block {
	return &types.Block{View: view, Proposer: 2, Parent: types.Hash{byte(view - 1)}, QC: testQC(view - 1),
		Payload: []types.Transaction{{ID: types.TxID{Client: 7, Seq: uint64(view)}, Command: []byte("x")}},
		Sig:     []byte{0xaa}}
}

// testRecord's suffix is blocks view-1 and view, so consecutive views
// share one block and add one — the live shape.
func testRecord(view types.View) Record {
	return Record{
		CurView:     view,
		LastVoted:   view,
		Preferred:   view - 1,
		LastTimeout: view - 2,
		HighQC:      testQC(view),
		Suffix:      []*types.Block{testBlock(view - 1), testBlock(view)},
	}
}

// checkRecord fails unless got is the testRecord for view, suffix
// blocks included.
func checkRecord(t *testing.T, got *Record, view types.View) {
	t.Helper()
	want := testRecord(view)
	if got == nil || got.CurView != view || got.LastVoted != want.LastVoted ||
		got.Preferred != want.Preferred || got.LastTimeout != want.LastTimeout {
		t.Fatalf("record = %+v, want the view-%d record", got, view)
	}
	if got.HighQC == nil || got.HighQC.View != view || len(got.HighQC.Sigs) != 3 {
		t.Fatalf("view-%d HighQC = %+v", view, got.HighQC)
	}
	if len(got.Suffix) != len(want.Suffix) {
		t.Fatalf("view-%d suffix has %d blocks, want %d", view, len(got.Suffix), len(want.Suffix))
	}
	for i, b := range got.Suffix {
		if b == nil || b.ID() != want.Suffix[i].ID() || len(b.Payload) != 1 {
			t.Fatalf("view-%d suffix[%d] = %+v", view, i, b)
		}
	}
}

// liveFrames is what a compacted log of rec holds, byte for byte.
func liveFrames(t *testing.T, rec *Record) []byte {
	t.Helper()
	frames, err := appendRecord(nil, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestAppendLatestReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "safety.wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Latest() != nil {
		t.Fatal("fresh log has a record")
	}
	for v := types.View(3); v <= 12; v++ {
		if err := w.Append(testRecord(v)); err != nil {
			t.Fatal(err)
		}
	}
	checkRecord(t, w.Latest(), 12)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Write-once: ten appends over eleven distinct blocks left eleven
	// block frames and ten state frames, not twenty block frames.
	if _, _, frames, err := scan(path); err != nil || frames != 21 {
		t.Fatalf("log holds %d frames (err %v), want 11 block + 10 state", frames, err)
	}

	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	checkRecord(t, w2.Latest(), 12)
	// Open compacts a multi-record log down to its live frames.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, liveFrames(t, w2.Latest())) {
		t.Fatalf("file is %d bytes after compaction, not the live suffix + one state frame", len(data))
	}
}

// TestTruncationAtEveryOffset: whatever prefix of the log a crash
// leaves, Open lands on the last fully written state — suffix blocks
// all present — and the log takes further appends. A cut is never
// corruption.
func TestTruncationAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "safety.wal")
	w, err := OpenNoSync(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the file size once the view-(3+i) record is written.
	var ends []int64
	for v := types.View(3); v <= 7; v++ {
		if err := w.Append(testRecord(v)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.wal")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var want types.View // 0: no record survives
		for i, end := range ends {
			if int64(cut) >= end {
				want = types.View(3 + i)
			}
		}
		w, err := OpenNoSync(cutPath)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if got := w.Latest(); want == 0 {
			if got != nil {
				t.Fatalf("cut=%d: latest = %+v, want an empty log", cut, got)
			}
		} else {
			checkRecord(t, got, want)
		}
		if err := w.Append(testRecord(9)); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		w.Close()
		w, err = OpenNoSync(cutPath)
		if err != nil {
			t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
		}
		checkRecord(t, w.Latest(), 9)
		w.Close()
	}
}

// TestCorruptionIsRejected: damage that is not a torn tail fails Open
// with ErrCorrupt, in a block frame and in a state frame alike.
func TestCorruptionIsRejected(t *testing.T) {
	rec := testRecord(5)
	good := liveFrames(t, &rec)
	block, err := appendBlockFrame(nil, rec.Suffix[0].ID(), rec.Suffix[0])
	if err != nil {
		t.Fatal(err)
	}
	// A state frame naming a block the file does not hold: the record
	// minus its first block frame.
	orphaned := good[len(block):]
	// A block frame carrying another block's ID: checksum fine, identity
	// wrong.
	mislabeled, err := appendBlockFrame(nil, rec.Suffix[0].ID(), rec.Suffix[1])
	if err != nil {
		t.Fatal(err)
	}
	flip := func(at int) []byte {
		data := append([]byte(nil), good...)
		data[at] ^= 0x40
		return data
	}
	for name, data := range map[string][]byte{
		"flipped byte in a block frame": flip(len(block) / 2),
		"flipped byte in a state frame": flip(len(good) - 1),
		"state names an absent block":   orphaned,
		"block frame under a wrong ID":  append(mislabeled, good[len(block):]...),
	} {
		path := filepath.Join(t.TempDir(), "safety.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestUnknownVersionIsRefused: a frame of another format version is
// neither repaired nor read — Open says what it found.
func TestUnknownVersionIsRefused(t *testing.T) {
	rec := testRecord(5)
	data, err := disk.AppendFrame(nil, 2, maxFrame, func(p []byte) []byte { return append(p, version+1, kindState) })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "safety.wal")
	if err := os.WriteFile(path, append(data, liveFrames(t, &rec)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("Open = %v, want an unsupported-version error", err)
	}
}

// TestPeriodicCompaction: after compactEvery appends the file is
// exactly the live suffix plus one state frame, and both the open
// handle and a reopened one append cleanly.
func TestPeriodicCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "safety.wal")
	w, err := OpenNoSync(path)
	if err != nil {
		t.Fatal(err)
	}
	last := types.View(2 + compactEvery)
	for v := types.View(3); v <= last; v++ {
		if err := w.Append(testRecord(v)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, liveFrames(t, w.Latest())) {
		t.Fatalf("file is %d bytes after %d appends, not the live suffix + one state frame", len(data), compactEvery)
	}
	// The next record shares block `last` with the compacted file: only
	// the new block and a state frame may be added.
	if err := w.Append(testRecord(last + 1)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, frames, err := scan(path); err != nil || frames != 5 {
		t.Fatalf("log holds %d frames (err %v), want 3 live + 1 block + 1 state", frames, err)
	}
	w, err = OpenNoSync(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	checkRecord(t, w.Latest(), last+1)
	if err := w.Append(testRecord(last + 2)); err != nil {
		t.Fatal(err)
	}
	checkRecord(t, w.Latest(), last+2)
}

// TestDeepSuffixRoundTrips: a suffix far deeper than any healthy run
// produces (views certifying without committing for a long stretch)
// is kept whole — per-block frames have no collective size bound.
func TestDeepSuffixRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "safety.wal")
	w, err := OpenNoSync(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(2100)
	rec.Suffix = nil
	for v := types.View(101); v <= 2100; v++ {
		rec.Suffix = append(rec.Suffix, testBlock(v))
	}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w, err = OpenNoSync(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := w.Latest()
	if got == nil || len(got.Suffix) != 2000 {
		t.Fatalf("reopened latest = %+v, want a 2000-block suffix", got)
	}
	for i, b := range got.Suffix {
		if b.ID() != rec.Suffix[i].ID() {
			t.Fatalf("suffix[%d] came back as another block", i)
		}
	}
}

// TestUnframeableBlockIsAnError: a block past the frame bound cannot
// be made durable, so Append fails, writes nothing, and leaves the log
// usable — the caller withholds its vote.
func TestUnframeableBlockIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "safety.wal")
	w, err := OpenNoSync(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(testRecord(5)); err != nil {
		t.Fatal(err)
	}
	rec := testRecord(9)
	rec.Suffix = []*types.Block{{View: 8, QC: testQC(7),
		Payload: []types.Transaction{{Command: make([]byte, maxFrame+1)}}}}
	if err := w.Append(rec); err == nil {
		t.Fatal("oversized block appended")
	}
	checkRecord(t, w.Latest(), 5)
	if err := w.Append(testRecord(6)); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenNoSync(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	checkRecord(t, w2.Latest(), 6)
}

// TestGoldenFrames pins the on-disk bytes of one block frame and one
// state frame, so a re-layout is a deliberate version bump and not a
// silent incompatibility.
func TestGoldenFrames(t *testing.T) {
	rec := testRecord(9)
	block, err := appendBlockFrame(nil, rec.Suffix[1].ID(), rec.Suffix[1])
	if err != nil {
		t.Fatal(err)
	}
	state, err := appendStateFrame(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "codec", "testdata", "golden_disk.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{"wal-block-frame": block, "wal-state-frame": state} {
		line := fmt.Sprintf("%s %s\n", name, hex.EncodeToString(frame))
		if !strings.Contains(string(golden), line) {
			t.Errorf("on-disk bytes changed; if intended, bump the format version and put this line in golden_disk.txt:\n%s", line)
		}
	}
}

// FuzzWAL feeds arbitrary bytes to Open: whatever is on disk, Open
// must either restore a record or reject cleanly — never panic, and
// never leave a log that cannot take appends.
func FuzzWAL(f *testing.F) {
	f.Add([]byte{})
	rec := testRecord(3)
	if frames, err := appendRecord(nil, &rec, nil); err == nil {
		f.Add(frames)
		f.Add(frames[:len(frames)/2])
		f.Add(append(frames, frames...))
		flipped := append([]byte(nil), frames...)
		flipped[len(flipped)-2] ^= 1
		f.Add(flipped)
		// The state frame alone: names blocks the file does not hold.
		if state, err := appendStateFrame(nil, &rec); err == nil {
			f.Add(state)
			f.Add(append(state, frames...))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenNoSync(path)
		if err != nil {
			return // clean rejection
		}
		defer w.Close()
		if rec := w.Latest(); rec != nil {
			for _, b := range rec.Suffix {
				if b == nil {
					t.Fatal("restored suffix has a missing block")
				}
			}
		}
		if err := w.Append(testRecord(42)); err != nil {
			t.Fatalf("append to recovered log: %v", err)
		}
		if rec := w.Latest(); rec == nil || rec.CurView != 42 {
			t.Fatalf("latest after append = %+v", rec)
		}
	})
}

// BenchmarkAppendSuffix is the vote path's WAL write under load: a
// three-block certified-but-uncommitted suffix that gains one block and
// sheds one per append, no fsync.
func BenchmarkAppendSuffix(b *testing.B) {
	for _, bc := range []struct {
		name     string
		txs, cmd int
	}{
		{"3x300x0B", 300, 0},
		{"3x250x128B", 250, 128},
	} {
		b.Run(bc.name, func(b *testing.B) {
			qc := &types.QC{View: 1, Signers: []types.NodeID{1, 2, 3}, Sigs: [][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}}
			// A ring of pre-built blocks (IDs materialized, as in the
			// forest) longer than a compaction period never repeats an ID
			// within the written set's lifetime.
			ring := make([]*types.Block, compactEvery+3)
			for i := range ring {
				payload := make([]types.Transaction, bc.txs)
				for j := range payload {
					payload[j] = types.Transaction{ID: types.TxID{Client: uint64(i), Seq: uint64(j)}, Command: make([]byte, bc.cmd)}
				}
				ring[i] = &types.Block{View: types.View(i + 1), Proposer: 1, QC: qc, Payload: payload, Sig: make([]byte, 32)}
				ring[i].ID()
			}
			w, err := OpenNoSync(filepath.Join(b.TempDir(), "bench.wal"))
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			suffix := make([]*types.Block, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range suffix {
					suffix[j] = ring[(i+j)%len(ring)]
				}
				v := types.View(i + 3)
				if err := w.Append(Record{CurView: v, LastVoted: v, Preferred: v - 1, HighQC: qc, Suffix: suffix}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

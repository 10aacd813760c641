package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// testSnapshot builds a structurally valid snapshot over the given
// payload: a block header whose certificate names it.
func testSnapshot(t *testing.T, height uint64, payload []byte) *Snapshot {
	t.Helper()
	b := &types.Block{View: types.View(height), Proposer: 1, Parent: types.Hash{1}}
	return &Snapshot{
		Height:      height,
		Block:       b,
		QC:          &types.QC{View: types.View(height), BlockID: b.ID()},
		StateDigest: Digest(payload),
		Payload:     payload,
	}
}

func TestStoreSaveAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica.snap")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Latest(); ok {
		t.Fatal("fresh store reports a snapshot")
	}
	payload := make([]byte, int(ChunkSize)+1234) // forces two chunks
	for i := range payload {
		payload[i] = byte(i)
	}
	snap := testSnapshot(t, 16, payload)
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	got, digests, ok := st.Latest()
	if !ok || got.Height != 16 {
		t.Fatalf("latest = %v, %v", got, ok)
	}
	if len(digests) != 2 {
		t.Fatalf("chunk digests = %d, want 2", len(digests))
	}

	// A reopened store must load, validate, and re-chunk the file.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	got2, digests2, ok := st2.Latest()
	if !ok || got2.Height != 16 || got2.StateDigest != snap.StateDigest {
		t.Fatalf("reloaded snapshot wrong: %+v ok=%v", got2, ok)
	}
	if len(digests2) != 2 || digests2[0] != digests[0] || digests2[1] != digests[1] {
		t.Fatal("reloaded chunk digests differ")
	}
	// Chunk slicing matches the digests.
	for i, d := range digests2 {
		if Digest(Chunk(got2.Payload, ChunkSize, uint32(i))) != d {
			t.Fatalf("chunk %d does not hash to its digest", i)
		}
	}
}

// TestStoreIgnoresCorruptFile: a damaged snapshot file must read as
// "no snapshot", never as a trusted state.
func TestStoreIgnoresCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica.snap")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testSnapshot(t, 8, []byte("state"))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a payload byte: digest mismatch
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st2.Latest(); ok {
		t.Fatal("corrupt snapshot file loaded as valid")
	}
}

// TestSaveRejectsInvalid: structurally broken snapshots never hit
// disk.
func TestSaveRejectsInvalid(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "replica.snap"))
	if err != nil {
		t.Fatal(err)
	}
	good := testSnapshot(t, 8, []byte("state"))

	bad := *good
	bad.StateDigest = types.Hash{0xbe, 0xef}
	if err := st.Save(&bad); err == nil {
		t.Fatal("digest mismatch saved")
	}
	bad = *good
	bad.QC = &types.QC{View: 8, BlockID: types.Hash{9}}
	if err := st.Save(&bad); err == nil {
		t.Fatal("certificate naming another block saved")
	}
	bad = *good
	bad.Height = 0
	if err := st.Save(&bad); err == nil {
		t.Fatal("zero-height snapshot saved")
	}
	if _, _, ok := st.Latest(); ok {
		t.Fatal("rejected snapshot became latest")
	}
}

func TestChunkMath(t *testing.T) {
	if ChunkCount(0, ChunkSize) != 0 {
		t.Fatal("empty payload has chunks")
	}
	if ChunkCount(1, ChunkSize) != 1 || ChunkCount(ChunkSize, ChunkSize) != 1 {
		t.Fatal("single-chunk boundary wrong")
	}
	if ChunkCount(ChunkSize+1, ChunkSize) != 2 {
		t.Fatal("chunk rounding wrong")
	}
	payload := []byte{1, 2, 3, 4, 5}
	if got := Chunk(payload, 2, 2); len(got) != 1 || got[0] != 5 {
		t.Fatalf("tail chunk = %v", got)
	}
	if Chunk(payload, 2, 3) != nil {
		t.Fatal("out-of-range chunk not nil")
	}
}

// TestStoreIgnoresUnreadableFiles: every proper prefix of a snapshot
// file, and a file of another format version, reads as "no snapshot" —
// never as a trusted state, never as an error that blocks startup.
func TestStoreIgnoresUnreadableFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.snap")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t, 8, []byte("some state"))
	snap.Block.Sig = []byte{1, 2, 3}
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bumped := append([]byte(nil), data...)
	bumped[0] = version + 1
	files := map[string][]byte{"another version": bumped}
	for cut := 0; cut < len(data); cut++ {
		files[fmt.Sprintf("cut at %d of %d", cut, len(data))] = data[:cut]
	}
	damaged := filepath.Join(dir, "damaged.snap")
	for name, content := range files {
		if err := os.WriteFile(damaged, content, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(damaged)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, ok := st.Latest(); ok {
			t.Fatalf("%s: loaded as a valid snapshot", name)
		}
	}
}

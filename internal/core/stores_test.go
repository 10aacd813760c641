package core

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestOpenStoresFailsWhole: when a later store cannot be opened,
// OpenStores reports the error and leaves no descriptor open behind
// it — the ledger (and WAL) it had already opened are closed.
func TestOpenStoresFailsWhole(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	for _, suffix := range []string{".wal", ".snap"} {
		t.Run(suffix, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "replica-1.ledger")
			if err := os.Mkdir(path+suffix, 0o755); err != nil {
				t.Fatal(err)
			}
			before := openFDs(t)
			st, err := OpenStores(path, DurabilityBuffered, true)
			if err == nil {
				_ = st.Close()
				t.Fatalf("OpenStores succeeded with a directory at %s", path+suffix)
			}
			if after := openFDs(t); after != before {
				t.Fatalf("%d descriptors open after the failed open, %d before", after, before)
			}
		})
	}
}

// TestOpenStoresReopen: after Close, reopening the same path restores
// the ledger height, the WAL's latest record and the snapshot, under
// every durability.
func TestOpenStoresReopen(t *testing.T) {
	for name, d := range map[string]Durability{
		"buffered": DurabilityBuffered, "write-through": DurabilityWriteThrough, "synced": DurabilitySynced,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "replica-1.ledger")
			st, err := OpenStores(path, d, true)
			if err != nil {
				t.Fatal(err)
			}
			parent := types.Genesis().ID()
			for h := uint64(1); h <= 3; h++ {
				b := &types.Block{View: types.View(h), Proposer: 1, Parent: parent}
				if err := st.Ledger.AppendCertified(b, h, nil); err != nil {
					t.Fatal(err)
				}
				parent = b.ID()
			}
			qc := &types.QC{View: 3, BlockID: parent}
			if err := st.WAL.Append(wal.Record{CurView: 4, LastVoted: 3, Preferred: 2, HighQC: qc}); err != nil {
				t.Fatal(err)
			}
			snapBlock := &types.Block{View: 2, Proposer: 1, Parent: types.Hash{1}}
			payload := []byte("state")
			if err := st.Snapshots.Save(&snapshot.Snapshot{
				Height: 2, Block: snapBlock, QC: &types.QC{View: 2, BlockID: snapBlock.ID()},
				StateDigest: snapshot.Digest(payload), Payload: payload,
			}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st, err = OpenStores(path, d, true)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if h := st.Ledger.Height(); h != 3 {
				t.Fatalf("reopened ledger at height %d, want 3", h)
			}
			rec := st.WAL.Latest()
			if rec == nil || rec.CurView != 4 || rec.LastVoted != 3 || rec.HighQC == nil || rec.HighQC.BlockID != parent {
				t.Fatalf("reopened WAL holds %+v, want the view-4 record", rec)
			}
			snap, _, ok := st.Snapshots.Latest()
			if !ok || snap.Height != 2 || string(snap.Payload) != "state" {
				t.Fatalf("reopened snapshot store holds %+v (ok %v), want the height-2 snapshot", snap, ok)
			}
		})
	}
}

// TestOpenStoresWithoutState: a replica without a state machine gets
// its ledger at the path and its WAL beside it, and no snapshot store.
func TestOpenStoresWithoutState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica-1.ledger")
	st, err := OpenStores(path, DurabilityBuffered, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Snapshots != nil {
		t.Fatal("snapshot store opened for a replica without a state machine")
	}
	for _, p := range []string{path, path + ".wal"} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

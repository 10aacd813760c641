package mempool

import (
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func mtx(client, seq uint64) types.Transaction {
	return types.Transaction{ID: types.TxID{Client: client, Seq: seq}}
}

func txIDs(txs []types.Transaction) []types.TxID {
	out := make([]types.TxID, len(txs))
	for i := range txs {
		out[i] = txs[i].ID
	}
	return out
}

// TestInterleavedRemoveRequeue is the regression test for the deque
// filter/re-slice bug: interleaving Remove (lazy ghosts, occasional
// compaction) with Requeue (pushFront) and Batch must never corrupt
// order, duplicate transactions, or lose live entries.
func TestInterleavedRemoveRequeue(t *testing.T) {
	p := New(1 << 12)
	for i := 1; i <= 100; i++ {
		if err := p.Add(mtx(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Remove a scattered third, leaving ghosts in the deque.
	var removed []types.TxID
	for i := 3; i <= 100; i += 3 {
		removed = append(removed, types.TxID{Client: 1, Seq: uint64(i)})
	}
	if got := p.Remove(removed); got != len(removed) {
		t.Fatalf("Remove = %d, want %d", got, len(removed))
	}
	if p.Len() != 100-len(removed) {
		t.Fatalf("Len = %d after removal", p.Len())
	}
	// Requeue two of the removed ones at the front.
	re := []types.Transaction{mtx(1, 3), mtx(1, 6)}
	if got := p.Requeue(re); got != 2 {
		t.Fatalf("Requeue = %d", got)
	}
	// Batch must see the requeued pair first, then survivors in order,
	// never a removed-but-not-requeued ID, never a duplicate.
	out := p.Batch(1 << 12)
	if len(out) != 100-len(removed)+2 {
		t.Fatalf("Batch returned %d", len(out))
	}
	if out[0].ID.Seq != 3 || out[1].ID.Seq != 6 {
		t.Fatalf("requeued order wrong: %v %v", out[0].ID, out[1].ID)
	}
	seen := map[types.TxID]bool{}
	lastSeq := uint64(0)
	for i, got := range out {
		if seen[got.ID] {
			t.Fatalf("duplicate %v", got.ID)
		}
		seen[got.ID] = true
		if i >= 2 {
			if got.ID.Seq%3 == 0 && got.ID.Seq != 3 && got.ID.Seq != 6 {
				t.Fatalf("removed transaction %v resurfaced", got.ID)
			}
			if got.ID.Seq <= lastSeq {
				t.Fatalf("order violated: %d after %d", got.ID.Seq, lastSeq)
			}
			lastSeq = got.ID.Seq
		}
	}
	if p.Len() != 0 {
		t.Fatalf("pool not drained: %d", p.Len())
	}
	// The emptied pool accepts fresh work (the old zero-cap edge).
	if err := p.Add(mtx(2, 1)); err != nil {
		t.Fatal(err)
	}
	if got := p.Batch(4); len(got) != 1 || got[0].ID != (types.TxID{Client: 2, Seq: 1}) {
		t.Fatalf("post-drain batch: %v", got)
	}
}

// TestRemoveEverythingThenPushFront exercises the old zero-capacity
// re-slice path: filter down to empty, then pushFront must work.
func TestRemoveEverythingThenPushFront(t *testing.T) {
	p := New(64)
	var all []types.Transaction
	for i := 1; i <= removeCompactFloor+100; i++ {
		tr := mtx(1, uint64(i))
		all = append(all, tr)
		_ = p.Requeue([]types.Transaction{tr}) // requeue bypasses cap
	}
	p.Remove(txIDs(all)) // large enough to trigger eager compaction
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
	if got := p.Requeue([]types.Transaction{mtx(9, 9)}); got != 1 {
		t.Fatalf("Requeue after full drain = %d", got)
	}
	out := p.Batch(10)
	if len(out) != 1 || out[0].ID != (types.TxID{Client: 9, Seq: 9}) {
		t.Fatalf("batch after drain: %v", out)
	}
}

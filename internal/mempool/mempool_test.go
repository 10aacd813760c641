package mempool

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func tx(seq uint64) types.Transaction {
	return types.Transaction{ID: types.TxID{Client: 1, Seq: seq}}
}

func ids(txs []types.Transaction) []uint64 {
	out := make([]uint64, len(txs))
	for i, t := range txs {
		out[i] = t.ID.Seq
	}
	return out
}

func TestAddAndBatchFIFO(t *testing.T) {
	p := New(100)
	for i := uint64(1); i <= 10; i++ {
		if err := p.Add(tx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 10 {
		t.Fatalf("len = %d", p.Len())
	}
	got := ids(p.Batch(4))
	want := []uint64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch order %v, want %v", got, want)
		}
	}
	if p.Len() != 6 {
		t.Fatalf("len after batch = %d", p.Len())
	}
}

func TestBatchTakesEverythingWhenUnderTarget(t *testing.T) {
	// The paper's simple batching: if fewer than bsize transactions
	// are queued, the proposer takes them all.
	p := New(100)
	for i := uint64(1); i <= 3; i++ {
		if err := p.Add(tx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Batch(400); len(got) != 3 {
		t.Fatalf("batch = %d, want all 3", len(got))
	}
	if got := p.Batch(400); got != nil {
		t.Fatalf("batch on empty pool = %v, want nil", got)
	}
}

func TestAddDuplicate(t *testing.T) {
	p := New(10)
	if err := p.Add(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(1)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	// After the tx leaves the pool it may be re-added (new attempt).
	p.Batch(1)
	if err := p.Add(tx(1)); err != nil {
		t.Fatalf("re-add after batch: %v", err)
	}
}

func TestAddFull(t *testing.T) {
	p := New(2)
	if err := p.Add(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(3)); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	if p.Cap() != 2 {
		t.Fatalf("cap = %d", p.Cap())
	}
}

func TestRequeueFrontOrder(t *testing.T) {
	p := New(100)
	for i := uint64(10); i <= 12; i++ {
		if err := p.Add(tx(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Forked block carried txs 1,2,3: they must come back out first,
	// in their original order.
	n := p.Requeue([]types.Transaction{tx(1), tx(2), tx(3)})
	if n != 3 {
		t.Fatalf("requeued %d, want 3", n)
	}
	got := ids(p.Batch(6))
	want := []uint64{1, 2, 3, 10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestRequeueSkipsDuplicates(t *testing.T) {
	p := New(100)
	if err := p.Add(tx(1)); err != nil {
		t.Fatal(err)
	}
	if n := p.Requeue([]types.Transaction{tx(1), tx(2)}); n != 1 {
		t.Fatalf("requeued %d, want 1", n)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestRequeueMayExceedCapacity(t *testing.T) {
	p := New(2)
	if err := p.Add(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(2)); err != nil {
		t.Fatal(err)
	}
	// Fork recycling must not drop transactions even at capacity.
	if n := p.Requeue([]types.Transaction{tx(3), tx(4)}); n != 2 {
		t.Fatalf("requeued %d, want 2", n)
	}
	if p.Len() != 4 {
		t.Fatalf("len = %d, want 4", p.Len())
	}
}

func TestRemove(t *testing.T) {
	p := New(100)
	for i := uint64(1); i <= 5; i++ {
		if err := p.Add(tx(i)); err != nil {
			t.Fatal(err)
		}
	}
	removed := p.Remove([]types.TxID{{Client: 1, Seq: 2}, {Client: 1, Seq: 4}, {Client: 9, Seq: 9}})
	if removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	got := ids(p.Batch(10))
	want := []uint64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("after remove %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after remove %v, want %v", got, want)
		}
	}
}

func TestContains(t *testing.T) {
	p := New(10)
	if err := p.Add(tx(1)); err != nil {
		t.Fatal(err)
	}
	if !p.Contains(types.TxID{Client: 1, Seq: 1}) {
		t.Fatal("contains false for queued tx")
	}
	if p.Contains(types.TxID{Client: 1, Seq: 2}) {
		t.Fatal("contains true for absent tx")
	}
}

func TestConcurrentAddBatch(t *testing.T) {
	p := New(100000)
	var wg sync.WaitGroup
	const producers, perProducer = 4, 1000
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(client uint64) {
			defer wg.Done()
			for i := uint64(0); i < perProducer; i++ {
				_ = p.Add(types.Transaction{ID: types.TxID{Client: client, Seq: i}})
			}
		}(uint64(g))
	}
	var consumed int
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			got := p.Batch(10)
			mu.Lock()
			consumed += len(got)
			mu.Unlock()
		}
	}()
	wg.Wait()
	consumed += len(p.Batch(1 << 20))
	if consumed != producers*perProducer {
		t.Fatalf("consumed %d, want %d", consumed, producers*perProducer)
	}
}

// Property: any interleaving of adds and batches preserves FIFO order
// per client and never returns a transaction twice.
func TestNoDuplicateDeliveryQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		p := New(1 << 16)
		seen := make(map[types.TxID]bool)
		var next uint64
		lastSeq := uint64(0)
		first := true
		for _, op := range ops {
			if op%3 == 0 {
				next++
				_ = p.Add(tx(next))
				continue
			}
			for _, got := range p.Batch(int(op%5) + 1) {
				if seen[got.ID] {
					return false // duplicate delivery
				}
				seen[got.ID] = true
				if !first && got.ID.Seq <= lastSeq {
					return false // FIFO violated (single client)
				}
				lastSeq, first = got.ID.Seq, false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddBatch(b *testing.B) {
	p := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Add(types.Transaction{ID: types.TxID{Client: 1, Seq: uint64(i)}})
		if i%400 == 399 {
			p.Batch(400)
		}
	}
}

// TestRejectPolicyDefault: the pool rejects exactly at capacity and
// counts every admission decision.
func TestRejectPolicyDefault(t *testing.T) {
	p := New(2)
	if err := p.Add(tx(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(3)); err != ErrFull {
		t.Fatalf("add at capacity = %v, want ErrFull", err)
	}
	st := p.Stats()
	if st.Admitted != 2 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want admitted 2, rejected 1", st)
	}
}

// TestNewDoesNotPresizeIndex: a pool of Table I capacity costs next to
// nothing to build. Pre-sizing the membership map to capacity was
// megabytes of buckets per replica — most of cluster assembly time and
// a permanent addition to every GC cycle's scan.
func TestNewDoesNotPresizeIndex(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := New(1 << 17)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("New(1<<17) allocated %d bytes, want under 64 kB", got)
	}
	if err := p.Add(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
}

package trace

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func hashOf(i uint64) types.Hash {
	var h types.Hash
	binary.BigEndian.PutUint64(h[:8], i)
	return h
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(2, 8, 8)
	h := hashOf(1)
	tr.OnReceived(h, 7, 3, 40)
	tr.OnVerified(h)
	tr.OnVoted(h)
	tr.OnQCFormed(h)
	tr.OnCommitted(h, 5, 40)
	sp, ok := tr.OnExecuted(h)
	if !ok {
		t.Fatal("span lost before execution")
	}
	tr.OnReplied(h)

	if sp.View != 7 || sp.Proposer != 3 || sp.Txs != 40 || sp.Height != 5 {
		t.Fatalf("span identity wrong: %+v", sp)
	}
	stamps := []int64{sp.Received, sp.Verified, sp.Voted, sp.QCFormed, sp.Committed, sp.Executed}
	for i := 1; i < len(stamps); i++ {
		if stamps[i-1] == 0 || stamps[i] < stamps[i-1] {
			t.Fatalf("stage stamps not monotone: %v", stamps)
		}
	}
	if sp.Proposed != 0 {
		t.Fatalf("follower span must not carry a proposed stamp, got %d", sp.Proposed)
	}

	ex := tr.Snapshot()
	if len(ex.Spans) != 1 || ex.Spans[0].Replied == 0 {
		t.Fatalf("snapshot = %+v", ex)
	}
}

func TestProposerSelfStamps(t *testing.T) {
	tr := New(1, 8, 8)
	h := hashOf(9)
	tr.OnProposed(h, 3, 1, 12)
	sp := tr.Snapshot().Spans[0]
	if sp.Proposed == 0 || sp.Received != sp.Proposed || sp.Verified != sp.Proposed {
		t.Fatalf("proposer's own copy should be received+verified at propose time: %+v", sp)
	}
}

// TestRingWraparound proves the span ring is bounded and evicts oldest
// first: after writing far more blocks than capacity, the snapshot
// holds exactly the newest cap spans, the index has forgotten the
// evicted ones, and the drop counter accounts for the rest.
func TestRingWraparound(t *testing.T) {
	const cap, total = 16, 100
	tr := New(1, cap, cap)
	for i := uint64(0); i < total; i++ {
		tr.OnReceived(hashOf(i), types.View(i), 1, 1)
	}

	ex := tr.Snapshot()
	if len(ex.Spans) != cap {
		t.Fatalf("ring holds %d spans, want %d", len(ex.Spans), cap)
	}
	if ex.SpansDropped != total-cap {
		t.Fatalf("SpansDropped = %d, want %d", ex.SpansDropped, total-cap)
	}
	// Oldest-first export of exactly the newest cap views.
	for i, sp := range ex.Spans {
		if want := types.View(total - cap + i); sp.View != want {
			t.Fatalf("span %d has view %d, want %d (oldest-first eviction broken)", i, sp.View, want)
		}
	}
	// Evicted blocks are gone from the index: a late stamp for one is
	// a no-op, not a resurrection.
	tr.OnCommitted(hashOf(0), 1, 1)
	for _, sp := range tr.Snapshot().Spans {
		if sp.Committed != 0 {
			t.Fatal("stamp on an evicted block resurrected it")
		}
	}
	// A live block still stamps.
	tr.OnCommitted(hashOf(total-1), total-1, 1)
	spans := tr.Snapshot().Spans
	if spans[len(spans)-1].Committed == 0 {
		t.Fatal("live block lost its stamp")
	}
}

func TestEventRingWraparound(t *testing.T) {
	const cap = 8
	tr := New(1, cap, cap)
	for v := types.View(1); v <= 3*cap; v++ {
		tr.OnTimeout(v)
	}
	ex := tr.Snapshot()
	if len(ex.Events) != cap {
		t.Fatalf("event ring holds %d, want %d", len(ex.Events), cap)
	}
	if ex.EventsDropped != 2*cap {
		t.Fatalf("EventsDropped = %d, want %d", ex.EventsDropped, 2*cap)
	}
	for i, e := range ex.Events {
		if want := types.View(2*cap + i + 1); e.View != want {
			t.Fatalf("event %d has view %d, want %d", i, e.View, want)
		}
	}
}

// TestSyncLogOutlivesEventRing: a catch-up episode's events survive
// the view events that evict them from the event ring, in order and
// with their heights, and the sync log itself keeps only the newest
// syncLogCap.
func TestSyncLogOutlivesEventRing(t *testing.T) {
	tr := New(2, 8, 8)
	tr.OnSync(EventSyncStart, 3, 100)
	tr.OnSync(EventSyncManifests, 0, 0)
	tr.OnSync(EventSyncChunks, 5, 152)
	tr.OnSync(EventSyncInstall, 0, 152)
	tr.OnSync(EventSyncEnd, 0, 160)
	for v := types.View(1); v <= 16; v++ {
		tr.OnTimeout(v)
	}
	for _, e := range tr.Snapshot().Events {
		if e.Kind != EventTimeout {
			t.Fatalf("event ring still holds %s", e.Kind)
		}
	}
	want := []Event{
		{Kind: EventSyncStart, Node: 3, Height: 100},
		{Kind: EventSyncManifests},
		{Kind: EventSyncChunks, Node: 5, Height: 152},
		{Kind: EventSyncInstall, Height: 152},
		{Kind: EventSyncEnd, Height: 160},
	}
	got := tr.SyncEvents()
	if len(got) != len(want) {
		t.Fatalf("sync log %+v, want %d events", got, len(want))
	}
	for i, e := range got {
		if e.Time == 0 || e.Kind != want[i].Kind || e.Node != want[i].Node || e.Height != want[i].Height {
			t.Fatalf("sync event %d = %+v, want %+v", i, e, want[i])
		}
	}
	for h := uint64(1); h <= syncLogCap; h++ {
		tr.OnSync(EventSyncEnd, 0, 1000+h)
	}
	got = tr.SyncEvents()
	if len(got) != syncLogCap || got[0].Height != 1001 || got[syncLogCap-1].Height != 1000+syncLogCap {
		t.Fatalf("sync log holds %d events from height %d, want the newest %d", len(got), got[0].Height, syncLogCap)
	}
}

func TestViewEnteredSelfLeader(t *testing.T) {
	tr := New(3, 8, 8)
	tr.OnViewEntered(5, 2)
	tr.OnViewEntered(6, 3) // we are the leader
	ev := tr.Snapshot().Events
	if len(ev) != 3 {
		t.Fatalf("want view-entered, view-entered, leader-elected; got %d events", len(ev))
	}
	if ev[2].Kind != EventLeaderElected || ev[2].View != 6 {
		t.Fatalf("missing leader-elected event: %+v", ev)
	}
}

func TestStampWriteOnce(t *testing.T) {
	tr := New(1, 8, 8)
	h := hashOf(4)
	tr.OnReceived(h, 1, 1, 1)
	first := tr.Snapshot().Spans[0].Received
	time.Sleep(2 * time.Millisecond)
	tr.OnReceived(h, 1, 1, 1) // replayed proposal must not move the stamp
	if got := tr.Snapshot().Spans[0].Received; got != first {
		t.Fatalf("replay moved the received stamp: %d -> %d", first, got)
	}
}

func TestConcurrentStamping(t *testing.T) {
	const cap = 64
	tr := New(1, cap, cap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				h := hashOf(i)
				tr.OnReceived(h, types.View(i), 1, 1)
				tr.OnVerified(h)
				tr.OnVoted(h)
				tr.OnQCFormed(h)
				tr.OnCommitted(h, i, 1)
				tr.OnExecuted(h)
				tr.OnViewEntered(types.View(i), types.NodeID(g+1))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := len(tr.Snapshot().Spans); got > cap {
		t.Fatalf("ring overflowed under concurrency: %d > %d", got, cap)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New(4, 8, 8)
	h := hashOf(11)
	tr.OnReceived(h, 2, 1, 5)
	tr.OnVerified(h)
	tr.OnVoted(h)
	tr.OnQCFormed(h)
	tr.OnCommitted(h, 1, 5)
	tr.OnExecuted(h)
	tr.OnTimeout(3)

	events := tr.Snapshot().Chrome()
	var slices, instants, meta int
	for _, e := range events {
		switch e.Ph {
		case "X":
			slices++
			if e.Pid != 4 || e.Tid < 1 || e.Tid > 5 {
				t.Fatalf("stage slice on wrong lane: %+v", e)
			}
			if e.Dur < 0 {
				t.Fatalf("negative duration: %+v", e)
			}
		case "i":
			instants++
			if e.Tid != 0 {
				t.Fatalf("instant event off lane 0: %+v", e)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unknown phase %q", e.Ph)
		}
	}
	if slices != 5 {
		t.Fatalf("want 5 stage slices for a fully executed block, got %d", slices)
	}
	if instants != 1 || meta != 7 {
		t.Fatalf("instants=%d meta=%d", instants, meta)
	}
}

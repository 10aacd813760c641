package network

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// newConditionedPair wires two TCP transports through one shared
// condition model — the harness's TCP-backend shape in miniature.
func newConditionedPair(t *testing.T) (*Conditioned, *Conditioned, *Conditions) {
	t.Helper()
	a, b := newTCPPair(t)
	cond := NewConditions(1)
	replicas := []types.NodeID{1, 2}
	ca := Condition(a, cond, replicas)
	cb := Condition(b, cond, replicas)
	t.Cleanup(func() {
		_ = ca.Close()
		_ = cb.Close()
		assertNoLeaks(t)
	})
	return ca, cb, cond
}

// deliver sends through send until want arrives on tr, failing after
// the deadline.
func deliver(t *testing.T, tr *Conditioned, want uint64, send func()) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		send()
		select {
		case env, ok := <-tr.Inbox():
			if !ok {
				t.Fatal("inbox closed while waiting")
			}
			if q, isQ := env.Msg.(types.SyncRequestMsg); isQ && q.From == want {
				return
			}
		case <-tick.C:
		case <-deadline:
			t.Fatalf("message %d never delivered", want)
		}
	}
}

// mustStaySilent asserts no message numbered want (or later) arrives
// on tr while send keeps offering it — the drop-side assertion for
// partitions and crashes.
func mustStaySilent(t *testing.T, tr *Conditioned, floor uint64, send func()) {
	t.Helper()
	deadline := time.After(200 * time.Millisecond)
	for {
		send()
		select {
		case env, ok := <-tr.Inbox():
			if !ok {
				t.Fatal("inbox closed")
			}
			if q, isQ := env.Msg.(types.SyncRequestMsg); isQ && q.From >= floor {
				t.Fatalf("message %d delivered through an active fault", q.From)
			}
		case <-deadline:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestConditionedPartitionMatchesSwitchSemantics: a partition must cut
// cross-group traffic over TCP exactly as the switch cuts it, and heal
// must restore it.
func TestConditionedPartitionMatchesSwitchSemantics(t *testing.T) {
	ca, cb, cond := newConditionedPair(t)

	deliver(t, cb, 1, func() { ca.Send(2, types.SyncRequestMsg{From: 1}) })

	cond.Partition(map[types.NodeID]int{1: 1})
	mustStaySilent(t, cb, 2, func() { ca.Send(2, types.SyncRequestMsg{From: 2}) })

	cond.Heal()
	deliver(t, cb, 3, func() { ca.Send(2, types.SyncRequestMsg{From: 3}) })
}

// TestConditionedCrashSilencesBothDirections: a crashed node neither
// sends nor receives — including messages arriving over sockets that
// are still open — and a restart brings it back.
func TestConditionedCrashSilencesBothDirections(t *testing.T) {
	ca, cb, cond := newConditionedPair(t)

	deliver(t, cb, 1, func() { ca.Send(2, types.SyncRequestMsg{From: 1}) })

	cond.Crash(2)
	// Inbound to the crashed node dies at its receive filter.
	mustStaySilent(t, cb, 2, func() { ca.Send(2, types.SyncRequestMsg{From: 2}) })
	// Outbound from the crashed node dies at its send judge.
	mustStaySilent(t, ca, 2, func() { cb.Send(1, types.SyncRequestMsg{From: 2}) })

	cond.Restart(2)
	deliver(t, cb, 3, func() { ca.Send(2, types.SyncRequestMsg{From: 3}) })
	deliver(t, ca, 4, func() { cb.Send(1, types.SyncRequestMsg{From: 4}) })
}

// TestConditionedDelayApplies: a per-node extra delay must hold
// messages back about as long as declared, like the switch scheduler
// does.
func TestConditionedDelayApplies(t *testing.T) {
	ca, cb, cond := newConditionedPair(t)

	// Warm the connection so dial time does not pollute the sample.
	deliver(t, cb, 1, func() { ca.Send(2, types.SyncRequestMsg{From: 1}) })

	cond.SetNodeDelay(1, 80*time.Millisecond, 0)
	start := time.Now()
	ca.Send(2, types.SyncRequestMsg{From: 2})
	select {
	case env := <-cb.Inbox():
		elapsed := time.Since(start)
		if q, isQ := env.Msg.(types.SyncRequestMsg); !isQ || q.From != 2 {
			t.Fatalf("unexpected message %+v", env.Msg)
		}
		if elapsed < 60*time.Millisecond {
			t.Fatalf("declared 80ms delay, message arrived after %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed message never arrived")
	}

	// Broadcast goes through the same judge.
	cond.SetNodeDelay(1, 0, 0)
	deliver(t, cb, 5, func() { ca.Broadcast(types.SyncRequestMsg{From: 5}) })
}

// TestConditionedDeliversInDeadlineOrder: delayed sends leave the shim
// by deadline, not by send order — a slow message scheduled first is
// overtaken by a fast one scheduled after it.
func TestConditionedDeliversInDeadlineOrder(t *testing.T) {
	ca, cb, cond := newConditionedPair(t)
	deliver(t, cb, 1, func() { ca.Send(2, types.SyncRequestMsg{From: 1}) })

	cond.SetNodeDelay(1, 120*time.Millisecond, 0)
	ca.Send(2, types.SyncRequestMsg{From: 2})
	cond.SetNodeDelay(1, 10*time.Millisecond, 0)
	ca.Send(2, types.SyncRequestMsg{From: 3})
	var order []uint64
	timeout := time.After(5 * time.Second)
	for len(order) < 2 {
		select {
		case env := <-cb.Inbox():
			if q, ok := env.Msg.(types.SyncRequestMsg); ok && q.From > 1 {
				order = append(order, q.From)
			}
		case <-timeout:
			t.Fatalf("received %v, want both delayed messages", order)
		}
	}
	if order[0] != 3 || order[1] != 2 {
		t.Fatalf("delivery order %v, want [3 2]", order)
	}
}

// TestConditionedDropsAtDeliveryWhenCrashed: a destination that
// crashes while a delayed message is in flight gets nothing, and the
// drop is the sender shim's, at the deadline — not the receive filter's.
func TestConditionedDropsAtDeliveryWhenCrashed(t *testing.T) {
	ca, cb, cond := newConditionedPair(t)
	deliver(t, cb, 1, func() { ca.Send(2, types.SyncRequestMsg{From: 1}) })

	cond.SetNodeDelay(1, 60*time.Millisecond, 0)
	before := ca.dropped.Load()
	ca.Send(2, types.SyncRequestMsg{From: 2})
	cond.Crash(2)
	time.Sleep(150 * time.Millisecond)
	if got := ca.dropped.Load() - before; got != 1 {
		t.Fatalf("sender shim dropped %d messages at delivery, want 1", got)
	}
	cond.Restart(2)
	cond.SetNodeDelay(1, 0, 0)
	select {
	case env := <-cb.Inbox():
		t.Fatalf("message to a crashed node delivered: %+v", env.Msg)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestConditionedCloseStopsScheduler: Close discards pending delayed
// sends and leaves no scheduler goroutine behind.
func TestConditionedCloseStopsScheduler(t *testing.T) {
	ca, cb, cond := newConditionedPair(t)
	cond.SetNodeDelay(1, time.Hour, 0)
	for i := 0; i < 100; i++ {
		ca.Send(2, types.SyncRequestMsg{From: uint64(i)})
	}
	_ = ca.Close()
	_ = cb.Close()
	assertNoLeaks(t)
}

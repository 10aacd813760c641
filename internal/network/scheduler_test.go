package network

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestDeliveryHeapOrdering: the heap yields deliveries in deadline
// order regardless of insertion order.
func TestDeliveryHeapOrdering(t *testing.T) {
	f := func(offsets []int16) bool {
		if len(offsets) == 0 {
			return true
		}
		base := time.Unix(1000, 0)
		var h deliveryHeap
		for _, off := range offsets {
			heap.Push(&h, delivery{at: base.Add(time.Duration(off) * time.Millisecond)})
		}
		sorted := make([]int16, len(offsets))
		copy(sorted, offsets)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, want := range sorted {
			d := heap.Pop(&h).(delivery)
			if d.at != base.Add(time.Duration(want)*time.Millisecond) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerDrainsAllDue: every delivery already due when the loop
// wakes goes out before it sleeps again, in deadline order, and a
// delivery not yet due waits for its own deadline.
func TestSchedulerDrainsAllDue(t *testing.T) {
	var mu sync.Mutex
	var got []time.Time
	early := false
	gate := make(chan struct{})
	first := true
	s := newScheduler(func(d delivery) {
		if first {
			// Hold the loop on the first delivery while the rest
			// pile up behind it.
			first = false
			<-gate
		}
		mu.Lock()
		got = append(got, d.at)
		early = early || time.Now().Before(d.at)
		mu.Unlock()
	})
	s.attach()
	defer s.detach()
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	now := time.Now()
	s.schedule(delivery{at: now.Add(-time.Microsecond)})
	time.Sleep(20 * time.Millisecond) // the loop is now parked in deliver
	const due = 200
	for i := due; i > 0; i-- {
		s.schedule(delivery{at: now.Add(-time.Duration(i))})
	}
	late := now.Add(100 * time.Millisecond)
	s.schedule(delivery{at: late})
	close(gate)

	deadline := time.Now().Add(2 * time.Second)
	for count() < due+2 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", count(), due+2)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Before(got[j]) }) {
		t.Fatal("deliveries out of deadline order")
	}
	if !got[len(got)-1].Equal(late) || early {
		t.Fatal("a delivery went out before its deadline")
	}
}

// TestSchedulerStopDiscardsAndJoins: the last detach drops what is
// queued, waits for the loop to exit, and turns later schedules into
// no-ops.
func TestSchedulerStopDiscardsAndJoins(t *testing.T) {
	var mu sync.Mutex
	delivered := 0
	s := newScheduler(func(delivery) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	s.attach()
	s.attach()
	s.schedule(delivery{at: time.Now().Add(50 * time.Millisecond)})
	s.detach() // one transport is still attached
	s.detach()
	select {
	case <-s.exited:
	default:
		t.Fatal("the last detach returned before the loop exited")
	}
	s.schedule(delivery{at: time.Now()})
	time.Sleep(80 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if delivered != 0 {
		t.Fatalf("%d deliveries after the last detach", delivered)
	}
}

// TestSchedulerStopBeforeStart: a scheduler that never saw a delivery
// has no goroutine to wait for.
func TestSchedulerStopBeforeStart(t *testing.T) {
	s := newScheduler(func(delivery) {})
	s.attach()
	s.detach()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		t.Fatal("a loop started without a delivery")
	}
}

// TestSchedulerOrdersDeliveries: messages with shorter delays arrive
// first even when scheduled last, whether the loop has yet to see the
// earlier deadline or is already waiting on it.
func TestSchedulerOrdersDeliveries(t *testing.T) {
	cond := NewConditions(1)
	s := NewSwitch(cond)
	defer s.Close()
	a, err := s.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	// Schedule the slow message first, then the fast one: the fast
	// one must still win the race (the scheduler re-arms its timers
	// for the new earliest deadline).
	cond.SetBaseDelay(60*time.Millisecond, 0)
	a.Send(2, "slow")
	cond.SetBaseDelay(10*time.Millisecond, 0)
	a.Send(2, "fast")
	first := recvWithin(t, b, time.Second)
	second := recvWithin(t, b, time.Second)
	if first.Msg != "fast" || second.Msg != "slow" {
		t.Fatalf("order: %v then %v", first.Msg, second.Msg)
	}

	// Now let the loop settle into its wait on the slow deadline
	// before the fast message arrives. The pause only makes that case
	// likely; the order holds either way, with 480 ms to spare.
	cond.SetBaseDelay(500*time.Millisecond, 0)
	a.Send(2, "slow")
	time.Sleep(10 * time.Millisecond)
	cond.SetBaseDelay(10*time.Millisecond, 0)
	a.Send(2, "fast")
	first = recvWithin(t, b, 5*time.Second)
	second = recvWithin(t, b, 5*time.Second)
	if first.Msg != "fast" || second.Msg != "slow" {
		t.Fatalf("order after the loop parked: %v then %v", first.Msg, second.Msg)
	}
}

// TestSchedulerHighVolume pushes many delayed messages through one
// scheduler and requires complete delivery.
func TestSchedulerHighVolume(t *testing.T) {
	cond := NewConditions(1)
	cond.SetBaseDelay(2*time.Millisecond, time.Millisecond)
	s := NewSwitch(cond)
	defer s.Close()
	a, err := s.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	const count = 5000
	go func() {
		for i := 0; i < count; i++ {
			a.Send(2, types.VoteMsg{Vote: &types.Vote{View: types.View(i), Voter: 1}})
		}
	}()
	received := 0
	deadline := time.After(10 * time.Second)
	for received < count {
		select {
		case <-b.Inbox():
			received++
		case <-deadline:
			t.Fatalf("received %d of %d", received, count)
		}
	}
}

// TestSwitchCloseStopsScheduler: pending deliveries die with the
// switch, and Close is idempotent.
func TestSwitchCloseStopsScheduler(t *testing.T) {
	cond := NewConditions(1)
	cond.SetBaseDelay(50*time.Millisecond, 0)
	s := NewSwitch(cond)
	a, err := s.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	a.Send(2, "doomed")
	s.Close()
	s.Close()
	select {
	case m := <-b.Inbox():
		t.Fatalf("delivery after Close: %v", m)
	case <-time.After(120 * time.Millisecond):
	}
}

// benchVote is the traffic of the scheduler benchmarks, boxed once so
// the loops measure the network, not the interface conversion.
var benchVote any = types.VoteMsg{Vote: &types.Vote{View: 1, Voter: 1}}

// BenchmarkScheduleDeliver drives the switch's delayed path at the
// benchmark substrate's 200 µs link delay: judge, schedule onto the
// heap, drain, inbox. Messages go out in chunks the inbox can always
// hold. CI gates its allocs/op against a committed constant — two, the
// heap's boxing of each delivery on push and on pop (ns/op is printed,
// not gated).
func BenchmarkScheduleDeliver(b *testing.B) {
	cond := NewConditions(1)
	cond.SetBaseDelay(200*time.Microsecond, 0)
	s := NewSwitch(cond)
	defer s.Close()
	a, err := s.Join(1)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := s.Join(2)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 256
	round := func(n int) {
		for i := 0; i < n; i++ {
			a.Send(2, benchVote)
		}
		for i := 0; i < n; i++ {
			<-dst.Inbox()
		}
	}
	round(chunk) // start the scheduler goroutine and size its buffers
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		round(min(chunk, b.N-done))
	}
}

// BenchmarkSwitchIdleHop measures one modelled hop on an otherwise idle
// process, one message at a time, and reports the median as hop_us:
// through the switch, and through a Conditioned shim (over a zero-delay
// switch, so the shim's condition model is the only delay). When every P is
// idle the Go runtime sleeps in whole milliseconds, so a runtime timer
// alone turns a 200 µs hop into about 1.1 ms; the scheduler's kernel
// timer exists to remove that floor. CI's "Gate idle hop precision"
// step fails when the 200 µs or 500 µs hop's median exceeds 1.3× the
// modelled delay on either path; the 2 ms hop is reported, not gated
// (see docs/observability.md).
func BenchmarkSwitchIdleHop(b *testing.B) {
	for _, path := range []string{"switch", "conditioned"} {
		for _, delay := range []time.Duration{200 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
			b.Run(fmt.Sprintf("%s/delay=%dus", path, delay.Microseconds()), func(b *testing.B) {
				cond := NewConditions(1)
				cond.SetBaseDelay(delay, 0)
				src, dst := idleHopPair(b, path == "conditioned", cond)
				reportMedianHop(b, src, dst, 0)
			})
		}
	}
}

// BenchmarkTCPIdleHop measures one modelled hop between two loopback
// TCP transports through the condition model, one message at a time on
// an otherwise idle process, and reports the median as hop_us. A 1 ms
// pause before each hop lets every thread go idle, as at a low load
// rung; back to back, the 0 µs hop reads far less. The 0 µs case is
// the bare loopback hop the TCP backend adds to every
// modelled delay — mostly thread wake-ups in the writer, the kernel
// and the reader, not the model. CI prints it beside the idle-hop gate
// and does not gate it (see docs/observability.md).
func BenchmarkTCPIdleHop(b *testing.B) {
	for _, delay := range []time.Duration{0, 200 * time.Microsecond, 500 * time.Microsecond} {
		b.Run(fmt.Sprintf("delay=%dus", delay.Microseconds()), func(b *testing.B) {
			cond := NewConditions(1)
			a, d := newTCPPair(b)
			replicas := []types.NodeID{1, 2}
			src, dst := Condition(a, cond, replicas), Condition(d, cond, replicas)
			b.Cleanup(func() {
				_ = src.Close()
				_ = dst.Close()
			})
			// The first send dials; keep the dial out of the sample.
			src.Send(2, benchVote)
			<-dst.Inbox()
			cond.SetBaseDelay(delay, 0)
			reportMedianHop(b, src, dst, time.Millisecond)
		})
	}
}

// reportMedianHop times b.N single-message hops from src to node 2's
// dst, each after an untimed pause, and reports the median as hop_us.
func reportMedianHop(b *testing.B, src, dst Transport, pause time.Duration) {
	hops := make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		if pause > 0 {
			time.Sleep(pause)
		}
		t0 := time.Now()
		src.Send(2, benchVote)
		<-dst.Inbox()
		hops = append(hops, time.Since(t0))
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	b.ReportMetric(float64(hops[len(hops)/2].Nanoseconds())/1e3, "hop_us")
}

// idleHopPair returns the sender (node 1) and receiver (node 2) of one
// modelled link under cond: two switch endpoints, or two Conditioned
// shims over a zero-delay switch. Everything closes with b.
func idleHopPair(b *testing.B, conditioned bool, cond *Conditions) (src, dst Transport) {
	b.Helper()
	swCond := cond
	if conditioned {
		swCond = nil
	}
	s := NewSwitch(swCond)
	b.Cleanup(s.Close)
	a, err := s.Join(1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := s.Join(2)
	if err != nil {
		b.Fatal(err)
	}
	if !conditioned {
		return a, d
	}
	replicas := []types.NodeID{1, 2}
	ca, cd := Condition(a, cond, replicas), Condition(d, cond, replicas)
	b.Cleanup(func() {
		_ = ca.Close()
		_ = cd.Close()
	})
	return ca, cd
}

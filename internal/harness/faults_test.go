package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// conditionsTarget adapts a bare condition model as a fault target:
// crash and restart have no transport to touch.
type conditionsTarget struct{ cond *network.Conditions }

func (t conditionsTarget) ApplyConditions(spec network.ConditionsSpec) {
	spec.Apply(t.cond, time.Now())
}
func (t conditionsTarget) Crash(id types.NodeID)   { t.cond.Crash(id) }
func (t conditionsTarget) Restart(id types.NodeID) { t.cond.Restart(id) }

// TestScheduleFiresInDeclaredOrder runs a deliberately shuffled
// schedule against a real condition model and asserts events apply in
// At order, each taking effect on the model.
func TestScheduleFiresInDeclaredOrder(t *testing.T) {
	sched := FaultSchedule{
		HealAt(60 * time.Millisecond),
		CrashAt(90*time.Millisecond, 2),
		PartitionAt(20*time.Millisecond, map[types.NodeID]int{1: 1}),
		SetDelayAt(40*time.Millisecond, time.Millisecond, 0, 3),
	}
	cond := network.NewConditions(1)
	var fired []FaultEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		sched.run(conditionsTarget{cond}, time.Now(), nil, func(ev FaultEvent) {
			fired = append(fired, ev)
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("schedule did not finish")
	}
	want := FaultSchedule{sched[2], sched[3], sched[0], sched[1]}
	if !reflect.DeepEqual(FaultSchedule(fired), want) {
		t.Fatalf("fired %+v, want %+v", fired, want)
	}
	if !cond.IsCrashed(2) {
		t.Fatal("crash event did not reach the condition model")
	}
}

// TestScheduleTieBreaksByDeclaration: equal offsets fire in
// declaration order (partition before its same-instant heal).
func TestScheduleTieBreaksByDeclaration(t *testing.T) {
	sched := FaultSchedule{
		CrashAt(10*time.Millisecond, 4),
		RestartAt(10*time.Millisecond, 4),
	}
	cond := network.NewConditions(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sched.run(conditionsTarget{cond}, time.Now(), nil, nil)
	}()
	<-done
	if cond.IsCrashed(4) {
		t.Fatal("restart declared after crash at the same offset must win")
	}
}

// TestScheduleStops: closing stop abandons pending events.
func TestScheduleStops(t *testing.T) {
	sched := FaultSchedule{CrashAt(time.Hour, 1)}
	cond := network.NewConditions(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sched.run(conditionsTarget{cond}, time.Now(), stop, nil)
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("scheduler ignored stop")
	}
	if cond.IsCrashed(1) {
		t.Fatal("abandoned event applied")
	}
}

// TestFaultEventJSONRoundTrip: every constructor's event survives a
// strict JSON round trip (unknown fields rejected) unchanged — a zero
// drop rate included, since a nil rate would mean "leave it alone".
func TestFaultEventJSONRoundTrip(t *testing.T) {
	events := FaultSchedule{
		PartitionAt(time.Second, map[types.NodeID]int{1: 1, 3: 2}),
		HealAt(2 * time.Second),
		CrashAt(3*time.Second, 2, 4),
		RestartAt(4*time.Second, 2),
		FluctuateAt(5*time.Second, time.Second, time.Millisecond, 20*time.Millisecond),
		SetDelayAt(6*time.Second, 5*time.Millisecond, time.Millisecond, 1, 3),
		SetDelayAt(7*time.Second, 0, 0, 1),
		SetDropRateAt(8*time.Second, 0.1),
		SetDropRateAt(9*time.Second, 0),
	}
	for i, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var back FaultEvent
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("event %d (%s): %v", i, raw, err)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("event %d changed in a round trip through %s: %+v, want %+v", i, raw, back, ev)
		}
	}
	if err := events.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultEventMethodsCoverWholeEvent: Empty, Validate and Apply on
// a FaultEvent are the event's own, not the embedded spec's, so a
// crash-only event is not empty, a negative offset is caught, and
// Apply fires the crash.
func TestFaultEventMethodsCoverWholeEvent(t *testing.T) {
	ev := CrashAt(time.Second, 2)
	if ev.Empty() || !ev.ConditionsSpec.Empty() {
		t.Fatalf("crash-only event: Empty %v, spec Empty %v", ev.Empty(), ev.ConditionsSpec.Empty())
	}
	if err := ev.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CrashAt(-time.Second, 2).Validate(); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := (FaultEvent{At: time.Second}).Validate(); err == nil {
		t.Fatal("event changing nothing accepted")
	}
	cond := network.NewConditions(1)
	ev.Apply(conditionsTarget{cond})
	if !cond.IsCrashed(2) {
		t.Fatal("Apply did not crash replica 2")
	}
}

package network

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func rate(p float64) *float64 { return &p }

// TestSpecApplyMatchesDirectCalls: applying a spec must be
// indistinguishable from the equivalent direct Conditions calls, judged
// by message fate.
func TestSpecApplyMatchesDirectCalls(t *testing.T) {
	cond := NewConditions(1)
	spec := ConditionsSpec{
		Partition: map[types.NodeID]int{1: 1},
		Delays:    []NodeDelaySpec{{Node: 2, Mean: 5 * time.Millisecond}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	spec.Apply(cond, time.Now())

	now := time.Now()
	if v := cond.judge(1, 2, 0, now); !v.drop {
		t.Fatal("partitioned node 1 should not reach node 2")
	}
	if v := cond.judge(2, 4, 0, now); v.drop || v.delay < 5*time.Millisecond {
		t.Fatalf("node 2 should send with extra delay, got %+v", v)
	}

	// Heal + clearing the delay restores full connectivity.
	heal := ConditionsSpec{
		Heal:   true,
		Delays: []NodeDelaySpec{{Node: 2}},
	}
	heal.Apply(cond, time.Now())
	if v := cond.judge(1, 2, 0, time.Now()); v.drop {
		t.Fatal("heal did not restore connectivity")
	}
	if v := cond.judge(2, 4, 0, time.Now()); v.delay != 0 {
		t.Fatalf("delay not cleared: %+v", v)
	}
}

// TestSpecValidate rejects the malformed corners an admin endpoint
// must never apply half of.
func TestSpecValidate(t *testing.T) {
	bad := []ConditionsSpec{
		{DropRate: rate(1.5)},
		{DropRate: rate(-0.1)},
		{Fluctuate: &FluctuateSpec{Dur: 0, Min: 0, Max: time.Millisecond}},
		{Fluctuate: &FluctuateSpec{Dur: time.Second, Min: time.Second, Max: 0}},
		{Delays: []NodeDelaySpec{{Node: 0, Mean: time.Millisecond}}},
		{Delays: []NodeDelaySpec{{Node: 1, Mean: -time.Millisecond}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
	good := ConditionsSpec{
		Heal:      true,
		DropRate:  rate(0.25),
		Fluctuate: &FluctuateSpec{Dur: time.Second, Min: time.Millisecond, Max: 2 * time.Millisecond},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestSpecJSONRoundTrip: the spec is the admin endpoint's wire body;
// it must survive JSON unchanged, including integer map keys.
func TestSpecJSONRoundTrip(t *testing.T) {
	in := ConditionsSpec{
		Partition: map[types.NodeID]int{1: 1, 2: 2},
		Delays:    []NodeDelaySpec{{Node: 3, Mean: time.Millisecond, Std: 100 * time.Microsecond}},
		DropRate:  rate(0.1),
		Fluctuate: &FluctuateSpec{Dur: time.Second, Min: time.Millisecond, Max: 5 * time.Millisecond},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ConditionsSpec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Partition[1] != 1 || out.Partition[2] != 2 || len(out.Delays) != 1 ||
		out.Delays[0] != in.Delays[0] || *out.DropRate != 0.1 ||
		*out.Fluctuate != *in.Fluctuate {
		t.Fatalf("round trip mangled the spec: %+v", out)
	}
}

// TestSpecMergeAccumulatesSteadyState: a supervisor replays the merged
// spec to a rebooted replica; it must reflect exactly the conditions a
// schedule has driven the deployment into.
func TestSpecMergeAccumulatesSteadyState(t *testing.T) {
	var acc ConditionsSpec
	acc.Merge(ConditionsSpec{Partition: map[types.NodeID]int{1: 1}})
	acc.Merge(ConditionsSpec{DropRate: rate(0.2)})
	acc.Merge(ConditionsSpec{Delays: []NodeDelaySpec{{Node: 2, Mean: time.Millisecond}}})

	if acc.Partition[1] != 1 || *acc.DropRate != 0.2 || len(acc.Delays) != 1 {
		t.Fatalf("accumulated state wrong: %+v", acc)
	}

	// Heal wipes the partition; zero delay clears the node's entry;
	// zero rate clears the drop.
	acc.Merge(ConditionsSpec{Heal: true})
	acc.Merge(ConditionsSpec{Delays: []NodeDelaySpec{{Node: 2}}, DropRate: rate(0)})
	if !acc.Empty() {
		t.Fatalf("steady state should be empty after undoing everything: %+v", acc)
	}

	// Fluctuation windows are wall-clock anchored and must not be
	// replayed to a rebooted replica.
	acc.Merge(ConditionsSpec{Fluctuate: &FluctuateSpec{Dur: time.Second, Max: time.Millisecond}})
	if acc.Fluctuate != nil {
		t.Fatal("fluctuation window leaked into the steady state")
	}
}

package harness

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// FaultEvent is one timed entry of a fault schedule: at offset At from
// experiment start, the embedded condition change — the same
// network.ConditionsSpec a fleet's POST /admin/conditions takes — is
// applied, then the Crash replicas stop, then the Restart replicas come
// back. The JSON is flat: {"at": 300000000, "partition": {"1": 1}},
// {"at": …, "heal": true}, {"at": …, "crash": [2]}. Build events with
// the *At constructors.
//
// FaultEvent's own Apply, Validate and Empty shadow the embedded
// spec's and cover the whole event, crashes and restarts included;
// Merge, promoted from the spec, covers only the condition change.
type FaultEvent struct {
	// At is the offset from experiment (cluster) start.
	At time.Duration `json:"at"`
	network.ConditionsSpec
	// Crash silences the listed replicas: they neither send nor
	// receive until restarted.
	Crash []types.NodeID `json:"crash,omitempty"`
	// Restart undoes a crash of the listed replicas.
	Restart []types.NodeID `json:"restart,omitempty"`
}

// PartitionAt splits the cluster into the given groups at offset at;
// messages cross group boundaries only between nodes sharing a group
// (unlisted nodes are group 0).
func PartitionAt(at time.Duration, groups map[types.NodeID]int) FaultEvent {
	return FaultEvent{At: at, ConditionsSpec: network.ConditionsSpec{Partition: groups}}
}

// HealAt removes every partition at offset at.
func HealAt(at time.Duration) FaultEvent {
	return FaultEvent{At: at, ConditionsSpec: network.ConditionsSpec{Heal: true}}
}

// CrashAt silences the named replicas at offset at: they neither send
// nor receive until restarted.
func CrashAt(at time.Duration, nodes ...types.NodeID) FaultEvent {
	return FaultEvent{At: at, Crash: nodes}
}

// RestartAt undoes a crash of the named replicas at offset at.
func RestartAt(at time.Duration, nodes ...types.NodeID) FaultEvent {
	return FaultEvent{At: at, Restart: nodes}
}

// FluctuateAt replaces the base link delay with Uniform(min, max) for
// dur starting at offset at — the responsiveness experiment's network
// fluctuation.
func FluctuateAt(at, dur, min, max time.Duration) FaultEvent {
	return FaultEvent{At: at, ConditionsSpec: network.ConditionsSpec{
		Fluctuate: &network.FluctuateSpec{Dur: dur, Min: min, Max: max},
	}}
}

// SetDelayAt adds Normal(mean, std) delay to every message the named
// replicas send, from offset at — the paper's "slow" run-time
// command. Zero mean and std clears a previous delay.
func SetDelayAt(at time.Duration, mean, std time.Duration, nodes ...types.NodeID) FaultEvent {
	ev := FaultEvent{At: at}
	for _, id := range nodes {
		ev.Delays = append(ev.Delays, network.NodeDelaySpec{Node: id, Mean: mean, Std: std})
	}
	return ev
}

// SetDropRateAt makes every message independently lost with
// probability rate from offset at.
func SetDropRateAt(at time.Duration, rate float64) FaultEvent {
	return FaultEvent{At: at, ConditionsSpec: network.ConditionsSpec{DropRate: &rate}}
}

// FaultSchedule is an ordered set of timed fault events. Events fire
// in At order (declaration order breaks ties).
type FaultSchedule []FaultEvent

// Validate reports the first malformed event.
func (s FaultSchedule) Validate() error {
	for i, ev := range s {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("harness: fault event %d: %w", i, err)
		}
	}
	return nil
}

// Validate reports what is malformed in the event. An event that
// declares nothing — a crash naming no replicas, a partition with no
// groups — would fire as a silent no-op: a typo'd scenario must not
// run "green".
func (ev FaultEvent) Validate() error {
	switch {
	case ev.At < 0:
		return errors.New("negative offset")
	case ev.Empty():
		return errors.New("changes nothing")
	case ev.Partition != nil && len(ev.Partition) == 0:
		return errors.New("partition with no groups")
	}
	return ev.ConditionsSpec.Validate()
}

// Empty reports whether the event changes nothing: no condition
// change, no crash, no restart.
func (ev FaultEvent) Empty() bool {
	return ev.ConditionsSpec.Empty() && len(ev.Crash) == 0 && len(ev.Restart) == 0
}

// FaultTarget is the deployment surface a schedule fires against. An
// event's condition change lands on ApplyConditions — the in-process
// cluster applies the spec to its shared condition model, a fleet fans
// it out to every server's admin endpoint. Crash and restart go
// through their own methods so a backend can give them transport- or
// process-level consequences: the TCP cluster tears down the crashed
// node's sockets, the fleet SIGKILLs and re-execs the child process.
// cluster.Cluster and fleet.Fleet implement it.
type FaultTarget interface {
	ApplyConditions(network.ConditionsSpec)
	Crash(types.NodeID)
	Restart(types.NodeID)
}

// Apply fires the event onto the target: the condition change, then
// the crashes, then the restarts.
func (ev FaultEvent) Apply(target FaultTarget) {
	if !ev.ConditionsSpec.Empty() {
		target.ApplyConditions(ev.ConditionsSpec)
	}
	for _, id := range ev.Crash {
		target.Crash(id)
	}
	for _, id := range ev.Restart {
		target.Restart(id)
	}
}

// run fires the schedule against the target from start, in At order,
// until done or stop closes. onFire, when non-nil, observes each
// event as it is applied (tests hook it).
func (s FaultSchedule) run(target FaultTarget, start time.Time,
	stop <-chan struct{}, onFire func(FaultEvent)) {

	ordered := make(FaultSchedule, len(s))
	copy(ordered, s)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for _, ev := range ordered {
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		}
		ev.Apply(target)
		if onFire != nil {
			onFire(ev)
		}
	}
}

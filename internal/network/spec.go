package network

import (
	"fmt"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// ConditionsSpec is a declarative condition change: the JSON body of a
// fleet's POST /admin/conditions, and the condition part of every
// harness fault event, which embeds it. One spec carries only the
// changes it declares — absent fields leave the corresponding
// condition alone — so a fleet supervisor can accumulate the
// steady-state view it must replay to a replica that rejoins after a
// crash.
//
// Apply order within one spec: Heal first (so "heal then re-partition"
// fits a single spec), then partitions, per-node delays, drop rate, and
// finally the fluctuation window (anchored at apply time). Crashes are
// not conditions: every backend crashes a replica through its fault
// target.
type ConditionsSpec struct {
	// Heal removes every partition before the rest of the spec
	// applies.
	Heal bool `json:"heal,omitempty"`
	// Partition assigns replicas to partition groups (unlisted nodes
	// are group 0); nil leaves the current partition untouched.
	Partition map[types.NodeID]int `json:"partition,omitempty"`
	// Delays adds Normal(mean, std) delay to every message the named
	// replicas send; zero mean and std clears a node's entry.
	Delays []NodeDelaySpec `json:"delays,omitempty"`
	// DropRate, when non-nil, sets the independent message loss
	// probability in [0,1].
	DropRate *float64 `json:"dropRate,omitempty"`
	// Fluctuate, when non-nil, opens a Uniform(min, max) delay window
	// of the given duration starting when the spec is applied.
	Fluctuate *FluctuateSpec `json:"fluctuate,omitempty"`
}

// NodeDelaySpec is one replica's extra send delay.
type NodeDelaySpec struct {
	Node types.NodeID  `json:"node"`
	Mean time.Duration `json:"mean"`
	Std  time.Duration `json:"std,omitempty"`
}

// FluctuateSpec bounds a delay fluctuation window.
type FluctuateSpec struct {
	Dur time.Duration `json:"dur"`
	Min time.Duration `json:"min"`
	Max time.Duration `json:"max"`
}

// Validate reports the first malformed field. An admin endpoint must
// reject a bad spec before touching the live model — a half-applied
// condition change would leave the fleet in a state no schedule
// declares.
func (s *ConditionsSpec) Validate() error {
	if s.DropRate != nil && (*s.DropRate < 0 || *s.DropRate > 1) {
		return fmt.Errorf("network: drop rate %v outside [0,1]", *s.DropRate)
	}
	if f := s.Fluctuate; f != nil {
		if f.Dur <= 0 {
			return fmt.Errorf("network: fluctuation window needs a positive duration")
		}
		if f.Min > f.Max {
			return fmt.Errorf("network: fluctuation min %v above max %v", f.Min, f.Max)
		}
	}
	for _, d := range s.Delays {
		if d.Node == 0 {
			return fmt.Errorf("network: delay spec names node 0")
		}
		if d.Mean < 0 || d.Std < 0 {
			return fmt.Errorf("network: negative delay for node %s", d.Node)
		}
	}
	return nil
}

// Empty reports whether the spec declares no change at all.
func (s *ConditionsSpec) Empty() bool {
	return !s.Heal && s.Partition == nil && len(s.Delays) == 0 &&
		s.DropRate == nil && s.Fluctuate == nil
}

// Apply compiles the spec onto the condition model at time now (the
// fluctuation anchor).
func (s *ConditionsSpec) Apply(c *Conditions, now time.Time) {
	if s.Heal {
		c.Heal()
	}
	if s.Partition != nil {
		c.Partition(s.Partition)
	}
	for _, d := range s.Delays {
		c.SetNodeDelay(d.Node, d.Mean, d.Std)
	}
	if s.DropRate != nil {
		c.SetDropRate(*s.DropRate)
	}
	if f := s.Fluctuate; f != nil {
		c.Fluctuate(now, f.Dur, f.Min, f.Max)
	}
}

// Merge folds a newly applied spec into the receiver, the accumulated
// steady state of a deployment: what a supervisor must replay to a
// replica that boots (or reboots) with a fresh condition model.
// Fluctuation windows are deliberately not accumulated — they are
// anchored wall-clock intervals, stale by the time a restarted replica
// could replay them.
func (s *ConditionsSpec) Merge(next ConditionsSpec) {
	if next.Heal {
		s.Partition = nil
		s.Heal = false // steady state: "no partition" is the zero value
	}
	if next.Partition != nil {
		groups := make(map[types.NodeID]int, len(next.Partition))
		for id, g := range next.Partition {
			groups[id] = g
		}
		s.Partition = groups
	}
	for _, d := range next.Delays {
		merged := make([]NodeDelaySpec, 0, len(s.Delays)+1)
		for _, prev := range s.Delays {
			if prev.Node != d.Node {
				merged = append(merged, prev)
			}
		}
		if d.Mean != 0 || d.Std != 0 {
			merged = append(merged, d)
		}
		s.Delays = merged
	}
	if next.DropRate != nil {
		rate := *next.DropRate
		if rate == 0 {
			s.DropRate = nil
		} else {
			s.DropRate = &rate
		}
	}
}

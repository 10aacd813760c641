package network

import (
	"math/rand"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Conditions models the state of the simulated network: base link
// delay (Normal(µ,σ), the paper's model assumption), per-NIC
// bandwidth, per-node extra delay (the run-time "slow" command),
// random loss, partitions, crash faults, and bounded time windows of
// delay fluctuation (the responsiveness experiment of Section VI-D).
//
// All methods are safe for concurrent use.
type Conditions struct {
	mu  sync.Mutex
	rng *rand.Rand

	baseMean time.Duration
	baseStd  time.Duration
	// bandwidth in bytes/second per NIC; 0 disables the 2·size/b
	// serialization charge.
	bandwidth float64

	perNode  map[types.NodeID]extraDelay
	groups   map[types.NodeID]int // partition group; default group 0
	dropRate float64
	crashed  map[types.NodeID]bool

	flucFrom  time.Time
	flucUntil time.Time
	flucMin   time.Duration
	flucMax   time.Duration
}

type extraDelay struct {
	mean time.Duration
	std  time.Duration
}

// NewConditions creates a condition model seeded for reproducibility.
func NewConditions(seed int64) *Conditions {
	return &Conditions{
		rng:     rand.New(rand.NewSource(seed)),
		perNode: make(map[types.NodeID]extraDelay),
		groups:  make(map[types.NodeID]int),
		crashed: make(map[types.NodeID]bool),
	}
}

// ConditionsFor builds a run's base condition model from its
// configuration: seeded by cfg.Seed, with the configured base link
// delay (Table I "delay") and per-NIC bandwidth (zero disables the
// charge).
func ConditionsFor(cfg config.Config) *Conditions {
	c := NewConditions(cfg.Seed)
	c.SetBaseDelay(cfg.Delay, cfg.DelayStd)
	c.SetBandwidth(cfg.Bandwidth)
	return c
}

// SetBaseDelay sets the Normal(mean, std) per-message link delay
// (Table I "delay").
func (c *Conditions) SetBaseDelay(mean, std time.Duration) {
	c.mu.Lock()
	c.baseMean, c.baseStd = mean, std
	c.mu.Unlock()
}

// SetBandwidth sets the per-NIC bandwidth in bytes/second; messages
// are charged 2·size/bandwidth (sender NIC + receiver NIC), matching
// the t_NIC term of the performance model. Zero disables the charge.
func (c *Conditions) SetBandwidth(bytesPerSecond float64) {
	c.mu.Lock()
	c.bandwidth = bytesPerSecond
	c.mu.Unlock()
}

// SetNodeDelay adds extra Normal(mean, std) delay to every message
// sent by the node — the paper's "slow" run-time command. Zero mean
// and std clears it.
func (c *Conditions) SetNodeDelay(id types.NodeID, mean, std time.Duration) {
	c.mu.Lock()
	if mean == 0 && std == 0 {
		delete(c.perNode, id)
	} else {
		c.perNode[id] = extraDelay{mean: mean, std: std}
	}
	c.mu.Unlock()
}

// SetDropRate makes every message independently lost with probability
// p ∈ [0,1].
func (c *Conditions) SetDropRate(p float64) {
	c.mu.Lock()
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.dropRate = p
	c.mu.Unlock()
}

// Partition assigns nodes to partition groups; messages cross groups
// only if both endpoints share a group. Heal() restores full
// connectivity.
func (c *Conditions) Partition(groups map[types.NodeID]int) {
	c.mu.Lock()
	c.groups = make(map[types.NodeID]int, len(groups))
	for id, g := range groups {
		c.groups[id] = g
	}
	c.mu.Unlock()
}

// Heal removes all partitions.
func (c *Conditions) Heal() {
	c.mu.Lock()
	c.groups = make(map[types.NodeID]int)
	c.mu.Unlock()
}

// Crash makes a node silent: it neither sends nor receives. The
// silence-attack and responsiveness experiments use it.
func (c *Conditions) Crash(id types.NodeID) {
	c.mu.Lock()
	c.crashed[id] = true
	c.mu.Unlock()
}

// Restart undoes Crash.
func (c *Conditions) Restart(id types.NodeID) {
	c.mu.Lock()
	delete(c.crashed, id)
	c.mu.Unlock()
}

// Fluctuate schedules a window [from, from+dur) during which every
// message experiences Uniform(min, max) delay instead of the base
// delay — the network fluctuation of the responsiveness experiment.
func (c *Conditions) Fluctuate(from time.Time, dur time.Duration, min, max time.Duration) {
	c.mu.Lock()
	c.flucFrom, c.flucUntil = from, from.Add(dur)
	c.flucMin, c.flucMax = min, max
	c.mu.Unlock()
}

// verdict is the fate of one message.
type verdict struct {
	drop  bool
	delay time.Duration
}

// judge decides the fate of a message of the given size from -> to at
// time now.
func (c *Conditions) judge(from, to types.NodeID, size int, now time.Time) verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed[from] || c.crashed[to] {
		return verdict{drop: true}
	}
	if gf, gt := c.groups[from], c.groups[to]; gf != gt {
		return verdict{drop: true}
	}
	if c.dropRate > 0 && c.rng.Float64() < c.dropRate {
		return verdict{drop: true}
	}
	var d time.Duration
	if !now.Before(c.flucFrom) && now.Before(c.flucUntil) {
		span := c.flucMax - c.flucMin
		if span > 0 {
			d = c.flucMin + time.Duration(c.rng.Int63n(int64(span)))
		} else {
			d = c.flucMin
		}
	} else if c.baseMean > 0 || c.baseStd > 0 {
		d = normalDelay(c.rng, c.baseMean, c.baseStd)
	}
	if extra, ok := c.perNode[from]; ok {
		d += normalDelay(c.rng, extra.mean, extra.std)
	}
	if c.bandwidth > 0 && size > 0 {
		d += time.Duration(2 * float64(size) / c.bandwidth * float64(time.Second))
	}
	return verdict{delay: d}
}

// normalDelay samples max(0, Normal(mean, std)).
func normalDelay(rng *rand.Rand, mean, std time.Duration) time.Duration {
	if std == 0 {
		return mean
	}
	d := time.Duration(rng.NormFloat64()*float64(std)) + mean
	if d < 0 {
		return 0
	}
	return d
}

// IsCrashed reports whether the node is crashed.
func (c *Conditions) IsCrashed(id types.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed[id]
}

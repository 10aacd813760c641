package network

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// judge-level unit tests: the verdict logic independent of delivery.

func TestJudgeCrashDropsBothDirections(t *testing.T) {
	c := NewConditions(1)
	c.Crash(2)
	if v := c.judge(1, 2, 10, time.Now()); !v.drop {
		t.Fatal("message to crashed node survived")
	}
	if v := c.judge(2, 1, 10, time.Now()); !v.drop {
		t.Fatal("message from crashed node survived")
	}
	c.Restart(2)
	if v := c.judge(1, 2, 10, time.Now()); v.drop {
		t.Fatal("message dropped after restart")
	}
	if !c.IsCrashed(3) == false && c.IsCrashed(3) {
		t.Fatal("uncrashed node reported crashed")
	}
}

func TestJudgePartitionGroups(t *testing.T) {
	c := NewConditions(1)
	c.Partition(map[types.NodeID]int{1: 0, 2: 1, 3: 1})
	if v := c.judge(1, 2, 10, time.Now()); !v.drop {
		t.Fatal("cross-partition message survived")
	}
	if v := c.judge(2, 3, 10, time.Now()); v.drop {
		t.Fatal("same-partition message dropped")
	}
	// Unlisted nodes default to group 0.
	if v := c.judge(1, 4, 10, time.Now()); v.drop {
		t.Fatal("default-group message dropped")
	}
	c.Heal()
	if v := c.judge(1, 2, 10, time.Now()); v.drop {
		t.Fatal("message dropped after heal")
	}
}

func TestJudgeFluctuationWindowBoundaries(t *testing.T) {
	c := NewConditions(1)
	start := time.Now().Add(time.Hour)
	c.Fluctuate(start, time.Minute, 40*time.Millisecond, 50*time.Millisecond)
	// Before the window: base delay (zero here).
	if v := c.judge(1, 2, 10, start.Add(-time.Second)); v.delay != 0 {
		t.Fatalf("delay before window: %v", v.delay)
	}
	// Inside: within [min, max).
	v := c.judge(1, 2, 10, start.Add(30*time.Second))
	if v.delay < 40*time.Millisecond || v.delay >= 50*time.Millisecond {
		t.Fatalf("fluctuation delay %v outside [40ms, 50ms)", v.delay)
	}
	// Exactly at the end: back to base.
	if v := c.judge(1, 2, 10, start.Add(time.Minute)); v.delay != 0 {
		t.Fatalf("delay after window: %v", v.delay)
	}
	// Degenerate min==max window.
	c.Fluctuate(start, time.Minute, 10*time.Millisecond, 10*time.Millisecond)
	if v := c.judge(1, 2, 10, start.Add(time.Second)); v.delay != 10*time.Millisecond {
		t.Fatalf("fixed fluctuation delay %v", v.delay)
	}
}

func TestJudgeBandwidthCharge(t *testing.T) {
	c := NewConditions(1)
	c.SetBandwidth(1 << 20) // 1 MiB/s
	v := c.judge(1, 2, 1<<19, time.Now())
	// 2·(512 KiB)/(1 MiB/s) = 1 s.
	if v.delay < 990*time.Millisecond || v.delay > 1010*time.Millisecond {
		t.Fatalf("bandwidth charge %v, want ≈1s", v.delay)
	}
	// Zero-size messages cost nothing.
	if v := c.judge(1, 2, 0, time.Now()); v.delay != 0 {
		t.Fatalf("zero-size charge %v", v.delay)
	}
}

func TestJudgePerNodeDelayAddsToBase(t *testing.T) {
	c := NewConditions(1)
	c.SetBaseDelay(5*time.Millisecond, 0)
	c.SetNodeDelay(1, 7*time.Millisecond, 0)
	if v := c.judge(1, 2, 10, time.Now()); v.delay != 12*time.Millisecond {
		t.Fatalf("combined delay %v, want 12ms", v.delay)
	}
	// Only the sender's slow setting applies.
	if v := c.judge(2, 1, 10, time.Now()); v.delay != 5*time.Millisecond {
		t.Fatalf("receiver-side delay applied: %v", v.delay)
	}
}

// TestConditionsForConfig: the run's base model carries the
// configured link delay and bandwidth charge.
func TestConditionsForConfig(t *testing.T) {
	cfg := config.Default()
	cfg.Delay, cfg.DelayStd, cfg.Bandwidth = 5*time.Millisecond, 0, 1<<20
	c := ConditionsFor(cfg)
	// 5 ms base plus 2·(512 KiB)/(1 MiB/s) = 1 s.
	if v := c.judge(1, 2, 1<<19, time.Now()); v.delay < 1003*time.Millisecond || v.delay > 1007*time.Millisecond {
		t.Fatalf("delay %v, want ≈1.005s", v.delay)
	}
}

func TestSetDropRateClamped(t *testing.T) {
	c := NewConditions(1)
	c.SetDropRate(2.0)
	if v := c.judge(1, 2, 10, time.Now()); !v.drop {
		t.Fatal("clamped drop rate 1.0 did not drop")
	}
	c.SetDropRate(-1)
	if v := c.judge(1, 2, 10, time.Now()); v.drop {
		t.Fatal("clamped drop rate 0.0 dropped")
	}
}

package config

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestDefaultsMatchTableI pins the defaults to the paper's Table I.
func TestDefaultsMatchTableI(t *testing.T) {
	c := Default()
	if c.Master != 0 {
		t.Error("master default must be 0 (rotating)")
	}
	if c.Strategy != StrategySilence {
		t.Error("strategy default must be silence")
	}
	if c.ByzNo != 0 {
		t.Error("byzNo default must be 0")
	}
	if c.BlockSize != 400 {
		t.Error("bsize default must be 400")
	}
	if c.MemSize != 1000 {
		t.Error("memsize default must be 1000")
	}
	if c.PayloadSize != 0 {
		t.Error("psize default must be 0")
	}
	if c.Delay != 0 {
		t.Error("delay default must be 0")
	}
	if c.Timeout != 100*time.Millisecond {
		t.Error("timeout default must be 100ms")
	}
	if c.Runtime != 30*time.Second {
		t.Error("runtime default must be 30s")
	}
	if c.Concurrency != 10 {
		t.Error("concurrency default must be 10")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

func TestQuorum(t *testing.T) {
	cases := []struct{ n, want int }{
		{4, 3}, {7, 5}, {8, 6}, {10, 7}, {16, 11}, {32, 22}, {64, 43}, {100, 67},
	}
	for _, c := range cases {
		if got := Quorum(c.n); got != c.want {
			t.Errorf("Quorum(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMaxFaults(t *testing.T) {
	cases := []struct{ n, want int }{{4, 1}, {7, 2}, {10, 3}, {32, 10}, {64, 21}}
	for _, c := range cases {
		if got := MaxFaults(c.n); got != c.want {
			t.Errorf("MaxFaults(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Quorum + faults relationship: two quorums overlap in >f nodes.
	for n := 4; n <= 100; n++ {
		q, f := Quorum(n), MaxFaults(n)
		if 2*q-n <= f {
			t.Errorf("n=%d: quorum intersection %d not > f=%d", n, 2*q-n, f)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"too few replicas", func(c *Config) { c.N = 3 }},
		{"empty protocol", func(c *Config) { c.Protocol = "" }},
		{"bad strategy", func(c *Config) { c.Strategy = "omission" }},
		{"byz exceeds f", func(c *Config) { c.ByzNo = 2 }}, // n=4 → f=1
		{"zero block size", func(c *Config) { c.BlockSize = 0 }},
		{"mempool under block", func(c *Config) { c.MemSize = 10 }},
		{"negative payload", func(c *Config) { c.PayloadSize = -1 }},
		{"zero timeout", func(c *Config) { c.Timeout = 0 }},
		{"zero runtime", func(c *Config) { c.Runtime = 0 }},
		{"negative runtime", func(c *Config) { c.Runtime = -time.Second }},
		{"zero mempool", func(c *Config) { c.MemSize = 0 }},
		{"negative mempool", func(c *Config) { c.MemSize = -1 }},
		{"negative concurrency", func(c *Config) { c.Concurrency = -1 }},
		{"master out of range", func(c *Config) { c.Master = 9 }},
		{"unknown election", func(c *Config) { c.Election = "sortition" }},
		{"hashed election with master", func(c *Config) { c.Election, c.Master = ElectionHashed, 2 }},
		{"forest keep below minimum", func(c *Config) { c.ForestKeep = 7 }},
		{"negative forest keep", func(c *Config) { c.ForestKeep = -1 }},
		{"negative snapshot interval", func(c *Config) { c.SnapshotInterval = -1 }},
		{"snapshot interval below default keep window", func(c *Config) { c.SnapshotInterval = 8 }},
		{"snapshot interval below explicit keep window", func(c *Config) {
			c.ForestKeep = 12
			c.SnapshotInterval = 11
		}},
		{"address count mismatch", func(c *Config) {
			c.Addrs = map[types.NodeID]string{1: "x"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mut(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// TestSnapshotIntervalValidation: the interval is accepted at or
// above the keep window (matching or exceeding the block retention
// that bridges a snapshot to the live chain) and zero stays disabled.
func TestSnapshotIntervalValidation(t *testing.T) {
	c := Default()
	c.SnapshotInterval = 16 // equals the default keep window
	if err := c.Validate(); err != nil {
		t.Fatalf("interval at the keep window rejected: %v", err)
	}
	c = Default()
	c.ForestKeep = 8
	c.SnapshotInterval = 8
	if err := c.Validate(); err != nil {
		t.Fatalf("interval at a shrunken keep window rejected: %v", err)
	}
	c = Default()
	c.SnapshotInterval = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("disabled interval rejected: %v", err)
	}
}

// TestForestKeepWindow: the keep window is configurable down to 8 (so
// tests can hit the deep-sync path fast), defaults to 16 when unset,
// and rejects anything in between.
func TestForestKeepWindow(t *testing.T) {
	c := Default()
	if c.ForestKeep != 16 || c.KeepWindow() != 16 {
		t.Fatalf("default keep window = %d/%d, want 16", c.ForestKeep, c.KeepWindow())
	}
	c.ForestKeep = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("unset keep window rejected: %v", err)
	}
	if c.KeepWindow() != 16 {
		t.Fatalf("unset keep window resolves to %d, want 16", c.KeepWindow())
	}
	c.ForestKeep = 8
	if err := c.Validate(); err != nil {
		t.Fatalf("minimum keep window rejected: %v", err)
	}
	if c.KeepWindow() != 8 {
		t.Fatalf("keep window %d, want 8", c.KeepWindow())
	}
}

func TestIsByzantine(t *testing.T) {
	c := Default()
	c.N = 32
	c.ByzNo = 4
	c.Strategy = StrategyForking
	for id := types.NodeID(1); id <= 4; id++ {
		if !c.IsByzantine(id) {
			t.Errorf("node %s should be Byzantine", id)
		}
	}
	for id := types.NodeID(5); id <= 32; id++ {
		if c.IsByzantine(id) {
			t.Errorf("node %s should be honest", id)
		}
	}
	c.Strategy = StrategyHonest
	if c.IsByzantine(1) {
		t.Error("honest strategy must disable Byzantine behaviour")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bamboo.json")
	c := Default()
	c.N = 8
	c.Protocol = ProtocolStreamlet
	c.BlockSize = 800
	c.Delay = 5 * time.Millisecond
	c.Election = ElectionHashed
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 8 || got.Protocol != ProtocolStreamlet || got.BlockSize != 800 || got.Delay != 5*time.Millisecond ||
		got.Election != ElectionHashed {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestLoadDerivesNFromAddrs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bamboo.json")
	c := Default()
	c.Addrs = map[types.NodeID]string{
		1: "127.0.0.1:7001", 2: "127.0.0.1:7002",
		3: "127.0.0.1:7003", 4: "127.0.0.1:7004",
	}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 4 {
		t.Fatalf("N = %d, want 4 (derived from addresses)", got.N)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

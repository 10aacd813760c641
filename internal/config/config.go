// Package config holds the run configuration for a Bamboo deployment.
// The parameters and their defaults mirror Table I of the paper; a
// configuration is fixed for a run and, for multi-process deployments,
// distributed to every node as a JSON file.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// Byzantine strategy names accepted by Config.Strategy.
const (
	StrategySilence    = "silence"
	StrategyForking    = "forking"
	StrategyEquivocate = "equivocate"
	StrategyHonest     = "" // empty means no Byzantine behaviour
)

// Protocol names accepted by Config.Protocol.
const (
	ProtocolHotStuff     = "hotstuff"
	ProtocolTwoChainHS   = "2chainhs"
	ProtocolStreamlet    = "streamlet"
	ProtocolFastHotStuff = "fasthotstuff"
	ProtocolOHS          = "ohs"
)

// Leader-election modes accepted by Config.Election.
const (
	ElectionRoundRobin = "round-robin"
	ElectionHashed     = "hashed"
)

// Config collects every tunable of a run. Field comments cite the
// corresponding Table I parameter where one exists.
type Config struct {
	// Addrs lists the peers: key is the node ID, value the address
	// the node listens on (Table I "address"). Empty for in-process
	// clusters.
	Addrs map[types.NodeID]string `json:"address,omitempty"`

	// N is the total number of replicas. Derived from Addrs when
	// they are provided.
	N int `json:"n"`

	// Protocol selects the cBFT protocol (hotstuff, 2chainhs,
	// streamlet, fasthotstuff, ohs).
	Protocol string `json:"protocol"`

	// Master pins a static leader; 0 means rotating leaders
	// (Table I "master").
	Master types.NodeID `json:"master"`

	// Election selects how rotating leaders are chosen: "" or
	// "round-robin" rotates through 1..N, "hashed" elects the leader
	// of each view pseudo-randomly from a hash of (Seed, view), the
	// design choice of Section V-E. It cannot be combined with Master.
	Election string `json:"election,omitempty"`

	// Strategy is the Byzantine strategy run by Byzantine nodes
	// (Table I "strategy"; default silence).
	Strategy string `json:"strategy"`

	// ByzNo is the number of Byzantine nodes (Table I "byzNo").
	// Nodes 1..ByzNo follow Strategy.
	ByzNo int `json:"byzNo"`

	// StrategyDelay postpones the Byzantine strategy: attackers act
	// honestly until this long after start. The responsiveness
	// experiment (Figure 15) uses it to launch the silence attack
	// after the network fluctuation window.
	StrategyDelay time.Duration `json:"strategyDelay"`

	// BlockSize is the number of transactions per block
	// (Table I "bsize"; default 400).
	BlockSize int `json:"bsize"`

	// MemSize is the memory-pool capacity in transactions
	// (Table I "memsize"; default 1000 in the paper's table —
	// in practice runs use a capacity that comfortably exceeds the
	// offered load, which the paper's artifact also does).
	MemSize int `json:"memsize"`

	// PayloadSize is the per-transaction payload in bytes
	// (Table I "psize"; default 0).
	PayloadSize int `json:"psize"`

	// Delay adds artificial latency to every sent message
	// (Table I "delay"); DelayStd is its standard deviation.
	Delay    time.Duration `json:"delay"`
	DelayStd time.Duration `json:"delayStd"`

	// Timeout is the view timer (Table I "timeout"; default 100ms).
	Timeout time.Duration `json:"timeout"`

	// Runtime is how long clients run (Table I "runtime"; 30s).
	Runtime time.Duration `json:"runtime"`

	// Concurrency is the number of concurrent closed-loop clients
	// (Table I "concurrency"; default 10).
	Concurrency int `json:"concurrency"`

	// CryptoScheme selects vote/block authentication: "ed25519"
	// (default) or "hmac".
	CryptoScheme string `json:"crypto"`

	// Seed drives deterministic key generation and workload
	// randomness; runs with equal seeds are reproducible.
	Seed int64 `json:"seed"`

	// Responsive, when true, lets a new leader propose as soon as
	// it collects a quorum of timeouts/new-view messages after a
	// view change (HotStuff's optimistic responsiveness). When
	// false the leader waits MaxNetworkDelay, the behaviour the
	// paper assigns to 2CHS/Streamlet in the t100 setting.
	Responsive bool `json:"responsive"`

	// MaxNetworkDelay is the assumed maximum network delay Δ a
	// non-responsive leader waits after a view change.
	MaxNetworkDelay time.Duration `json:"maxNetworkDelay"`

	// Bandwidth models per-NIC throughput in bytes/second for the
	// in-process transport (0 disables bandwidth modelling).
	Bandwidth float64 `json:"bandwidth"`

	// SnapshotInterval, when positive, snapshots the replica's state
	// machine every that-many committed heights: the canonical
	// kvstore serialization plus the certified block header at the
	// snapshot height is persisted next to the ledger, and the ledger
	// compacts the covered prefix. Snapshots are what serve catch-up
	// for peers whose gap outruns every retained ledger prefix
	// (transfer cost O(state) instead of O(chain)) and what a
	// restarted replica restores before replaying its ledger suffix.
	// Zero disables snapshotting (the ledger then retains the whole
	// chain). Enabled values below the forest keep window are
	// rejected: the window of full blocks above a snapshot is what
	// lets peers bridge the snapshot to the live chain. Capture runs
	// on the ordered apply stage, off the event loop, right after the
	// block at the interval height executes.
	SnapshotInterval int `json:"snapshotInterval"`

	// ForestKeep is how many committed heights of full blocks the
	// forest retains below the tip for parent lookups and shallow
	// catch-up serving; deeper history is served from the ledger by
	// state sync. 0 picks the default of 16; values below 8 are
	// rejected (the engine needs a few heights of slack for orphan
	// attachment and fork bookkeeping). Tests shrink it to exercise
	// the deep-sync path quickly.
	ForestKeep int `json:"forestKeep"`
}

// Default returns the paper's Table I defaults: rotating leaders,
// silence strategy with zero Byzantine nodes, 400-transaction blocks,
// 1000-transaction mempool, zero payload and added delay, 100 ms view
// timeout, 30 s client runtime, concurrency 10.
func Default() Config {
	return Config{
		N:               4,
		Protocol:        ProtocolHotStuff,
		Master:          0,
		Strategy:        StrategySilence,
		ByzNo:           0,
		BlockSize:       400,
		MemSize:         1000,
		PayloadSize:     0,
		Delay:           0,
		Timeout:         100 * time.Millisecond,
		Runtime:         30 * time.Second,
		Concurrency:     10,
		CryptoScheme:    "ed25519",
		Seed:            1,
		Responsive:      true,
		MaxNetworkDelay: 20 * time.Millisecond,
		ForestKeep:      16,
	}
}

// KeepWindow returns the effective forest keep window: ForestKeep, or
// the default of 16 when unset.
func (c *Config) KeepWindow() int {
	if c.ForestKeep <= 0 {
		return 16
	}
	return c.ForestKeep
}

// Quorum returns the vote threshold n−f with f = ⌊(n−1)/3⌋. For
// n = 3f+1 this is the classic 2f+1; for other n it is the smallest
// count whose pairwise intersections always contain an honest node.
func Quorum(n int) int {
	return n - MaxFaults(n)
}

// Quorum returns Quorum(c.N) for this configuration's cluster size.
func (c *Config) Quorum() int { return Quorum(c.N) }

// MaxFaults returns f = ⌊(n−1)/3⌋, the tolerated Byzantine faults.
func MaxFaults(n int) int { return (n - 1) / 3 }

// Validate checks internal consistency and reports the first problem.
func (c *Config) Validate() error {
	if c.N < 4 {
		return fmt.Errorf("config: need at least 4 replicas, have %d", c.N)
	}
	if len(c.Addrs) > 0 && len(c.Addrs) != c.N {
		return fmt.Errorf("config: %d addresses for %d replicas", len(c.Addrs), c.N)
	}
	if c.Protocol == "" {
		return errors.New("config: protocol must be set")
	}
	// Names beyond the built-in constants are allowed here: custom
	// protocols register with the protocol registry, which is the
	// authority that rejects truly unknown names at cluster build.
	switch c.Strategy {
	case StrategyHonest, StrategySilence, StrategyForking, StrategyEquivocate:
	default:
		return fmt.Errorf("config: unknown Byzantine strategy %q", c.Strategy)
	}
	if c.ByzNo < 0 || c.ByzNo > MaxFaults(c.N) {
		return fmt.Errorf("config: byzNo %d exceeds f=%d for n=%d", c.ByzNo, MaxFaults(c.N), c.N)
	}
	if c.BlockSize <= 0 {
		return errors.New("config: block size must be positive")
	}
	if c.MemSize <= 0 {
		return fmt.Errorf("config: memsize must be positive, have %d", c.MemSize)
	}
	if c.MemSize < c.BlockSize {
		return fmt.Errorf("config: memsize %d smaller than block size %d", c.MemSize, c.BlockSize)
	}
	if c.PayloadSize < 0 {
		return errors.New("config: payload size must be non-negative")
	}
	if c.Timeout <= 0 {
		return errors.New("config: timeout must be positive")
	}
	if c.Runtime <= 0 {
		return errors.New("config: runtime must be positive")
	}
	if c.Concurrency < 0 {
		return errors.New("config: concurrency must be non-negative")
	}
	if int(c.Master) > c.N {
		return fmt.Errorf("config: master %d out of range for n=%d", c.Master, c.N)
	}
	switch c.Election {
	case "", ElectionRoundRobin:
	case ElectionHashed:
		if c.Master != 0 {
			return fmt.Errorf("config: hashed election rotates leaders, master %d pins one", c.Master)
		}
	default:
		return fmt.Errorf("config: unknown election %q", c.Election)
	}
	if c.ForestKeep != 0 && c.ForestKeep < 8 {
		return fmt.Errorf("config: forest keep window %d below minimum 8", c.ForestKeep)
	}
	if c.SnapshotInterval < 0 {
		return errors.New("config: snapshot interval must be non-negative")
	}
	if c.SnapshotInterval != 0 && c.SnapshotInterval < c.KeepWindow() {
		return fmt.Errorf("config: snapshot interval %d below forest keep window %d",
			c.SnapshotInterval, c.KeepWindow())
	}
	return nil
}

// ApplyProtocolDefaults sets the per-protocol responsiveness default:
// HotStuff, Fast-HotStuff, and OHS propose as soon as a quorum of
// timeouts arrives after a view change; 2CHS and Streamlet wait the
// maximum network delay. Experiments (e.g. Figure 15's t10/t100
// settings) override Responsive after calling this.
func (c *Config) ApplyProtocolDefaults() {
	switch c.Protocol {
	case ProtocolHotStuff, ProtocolFastHotStuff, ProtocolOHS:
		c.Responsive = true
	case ProtocolTwoChainHS, ProtocolStreamlet:
		c.Responsive = false
	}
}

// IsByzantine reports whether id runs the Byzantine strategy under
// this configuration (the first ByzNo node IDs are Byzantine).
func (c *Config) IsByzantine(id types.NodeID) bool {
	return c.ByzNo > 0 && c.Strategy != StrategyHonest && int(id) <= c.ByzNo
}

// Load reads a JSON configuration file, applying defaults for any
// field the file omits.
func Load(path string) (Config, error) {
	c := Default()
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if len(c.Addrs) > 0 {
		c.N = len(c.Addrs)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Save writes the configuration as indented JSON.
func (c *Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

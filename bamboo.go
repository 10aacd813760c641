// Package bamboo is the public face of the Bamboo chained-BFT
// prototyping and evaluation framework, a Go reproduction of
// "Dissecting the Performance of Chained-BFT" (ICDCS 2021).
//
// Bamboo lets you assemble an in-process (or TCP) cluster running any
// of the built-in protocols — HotStuff, two-chain HotStuff, Streamlet,
// Fast-HotStuff, and the OHS baseline — or a protocol you define by
// implementing the four safety rules (Proposing, Voting, State
// Updating, Commit) and registering it under a name:
//
//	cfg := bamboo.DefaultConfig()
//	cfg.Protocol = bamboo.ProtocolHotStuff
//	cfg.ApplyProtocolDefaults()
//	c, err := bamboo.NewCluster(cfg, bamboo.ClusterOptions{})
//	...
//	c.Start()
//	defer c.Stop()
//	client, err := c.NewClient()
//	client.SubmitAndWait(time.Second)
//
// Above the cluster sits the declarative experiment layer — the
// framework-as-harness the paper is about. An Experiment is data: a
// Config, a Workload spec (padded no-op, zipfian key-value mix, or
// kvbank transfers), a timed fault schedule (PartitionAt, HealAt,
// CrashAt, RestartAt, FluctuateAt, SetDelayAt), and a measurement
// plan. Run executes it and returns a structured, JSON-marshalable
// Result:
//
//	res, err := bamboo.Run(bamboo.Experiment{
//		Config:   cfg,
//		Workload: bamboo.WorkloadSpec{Kind: bamboo.WorkloadKV, WriteRatio: 0.5},
//		Faults: bamboo.FaultSchedule{
//			bamboo.PartitionAt(time.Second, map[bamboo.NodeID]int{1: 1, 2: 1}),
//			bamboo.HealAt(2 * time.Second),
//		},
//		Measure: bamboo.MeasurePlan{Warmup: time.Second, Window: 2 * time.Second},
//	})
//
// Fault schedules may isolate replicas for longer than the in-memory
// forest keep window: every replica persists its committed chain to a
// ledger by default, and a rejoining replica streams the gap from a
// peer's ledger as verified certificate-chained batches (state sync),
// then re-commits. Result.Recovered and Result.Heights record the
// outcome; Node status and the pipeline counters expose progress.
//
// The types below alias the implementation packages so downstream
// code can name every value the API returns.
package bamboo

import (
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/core"
	"github.com/bamboo-bft/bamboo/internal/forest"
	"github.com/bamboo-bft/bamboo/internal/harness"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/model"
	"github.com/bamboo-bft/bamboo/internal/protocol"
	"github.com/bamboo-bft/bamboo/internal/safety"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// Core configuration and deployment types.
type (
	// Config is the run configuration (Table I of the paper).
	Config = config.Config
	// Cluster is an in-process deployment of N replicas.
	Cluster = cluster.Cluster
	// ClusterOptions tunes cluster assembly.
	ClusterOptions = cluster.Options
	// Client is a benchmark client (closed- or open-loop).
	Client = client.Client
	// Node is a single replica.
	Node = core.Node
	// NodeStatus is a replica's published snapshot.
	NodeStatus = core.Status
	// ChainStats carries the chain micro-metrics (CGR, BI).
	ChainStats = metrics.ChainStats
	// PipelineStats carries the hot-path instrumentation beyond the
	// chain metrics: the ordered apply stage's lag and block count,
	// safety-WAL syncs, and the state-sync, snapshot and replay
	// counters.
	PipelineStats = metrics.PipelineStats
	// Store is the in-memory key-value execution layer.
	Store = kvstore.Store
	// Ledger is the append-only persistent store of committed blocks.
	// Clusters give every replica one by default (it is what deep
	// state sync serves catch-up ranges from); set a stable location
	// with ClusterOptions.LedgerDir or opt out with
	// ClusterOptions.DisableLedger.
	Ledger = ledger.Ledger
)

// ReplayLedger streams a persisted chain in commit order, verifying
// height contiguity and parent links.
func ReplayLedger(path string, fn func(b *Block, height uint64) error) error {
	return ledger.Replay(path, fn)
}

// Protocol-authoring types: implement Rules against Env (the block
// forest plus identity) and register with RegisterProtocol.
type (
	// Rules is the four-rule safety interface a protocol implements.
	Rules = safety.Rules
	// Env hands a protocol its per-replica environment.
	Env = safety.Env
	// Policy declares a protocol's design choices (vote routing,
	// echoing, responsiveness, client path).
	Policy = safety.Policy
	// DurableState is the crash-critical voting state a protocol
	// reports for (and restores from) the safety WAL.
	DurableState = safety.DurableState
	// Forest is the block-forest API available to protocols.
	Forest = forest.Forest
)

// Wire-level data types protocols and applications touch.
type (
	// Block is the unit of replication.
	Block = types.Block
	// QC is a quorum certificate.
	QC = types.QC
	// TC is a timeout certificate.
	TC = types.TC
	// View is a protocol round.
	View = types.View
	// NodeID identifies a replica.
	NodeID = types.NodeID
	// Hash is a block identifier.
	Hash = types.Hash
	// Transaction is a client command.
	Transaction = types.Transaction
	// TxID identifies a transaction.
	TxID = types.TxID
)

// ModelParams parameterizes the Section V analytic performance model.
type ModelParams = model.Params

// Declarative experiment types: a scenario is data, executed by Run.
type (
	// Experiment declares one complete scenario: configuration,
	// workload, fault schedule, and measurement plan.
	Experiment = harness.Experiment
	// MeasurePlan declares how a scenario is loaded and measured.
	MeasurePlan = harness.MeasurePlan
	// FaultEvent is one timed entry of a fault schedule.
	FaultEvent = harness.FaultEvent
	// FaultSchedule is an ordered set of timed fault events.
	FaultSchedule = harness.FaultSchedule
	// Result is the structured, JSON-marshalable outcome of Run.
	Result = harness.Result
	// ResultPoint is one measured datum of a result.
	ResultPoint = harness.Point
	// NetworkStats totals the switch counters of a run.
	NetworkStats = harness.NetworkStats
	// WorkloadSpec declares a transaction generator as data.
	WorkloadSpec = workload.Spec
	// WorkloadGenerator produces benchmark transaction commands;
	// install a custom one with Client.SetWorkload.
	WorkloadGenerator = workload.Generator
)

// Workload kinds for WorkloadSpec.Kind.
const (
	WorkloadNoop   = workload.KindNoop
	WorkloadKV     = workload.KindKV
	WorkloadKVBank = workload.KindKVBank
)

// WorkloadAccount returns the store key of kvbank account i.
func WorkloadAccount(i int) string { return workload.Account(i) }

// Leader-election modes for Config.Election.
const (
	ElectionRoundRobin = config.ElectionRoundRobin
	ElectionHashed     = config.ElectionHashed
)

// Deployment backends for Experiment.Backend: the in-process channel
// switch (default), one real loopback TCP listener per replica, or one
// bamboo-server OS process per replica. The declared fault schedule
// means the same thing on all of them.
const (
	BackendSwitch = harness.BackendSwitch
	BackendTCP    = harness.BackendTCP
	BackendFleet  = harness.BackendFleet
)

// Backends lists the registered deployment backends.
func Backends() []string { return harness.Backends() }

// Run executes a declared experiment and returns its structured
// result — the framework's evaluation entry point.
func Run(exp Experiment) (*Result, error) { return harness.Run(exp) }

// LoadExperiment reads a declared scenario from a JSON file,
// validating it (unknown fields rejected) before it can run — the
// `bamboo-bench -run scenario.json` loader.
func LoadExperiment(path string) (Experiment, error) { return harness.LoadExperiment(path) }

// Fault-schedule constructors: each returns one timed event whose
// offset is measured from cluster start.
func PartitionAt(at time.Duration, groups map[NodeID]int) FaultEvent {
	return harness.PartitionAt(at, groups)
}

// HealAt removes every partition at offset at.
func HealAt(at time.Duration) FaultEvent { return harness.HealAt(at) }

// CrashAt silences the named replicas at offset at.
func CrashAt(at time.Duration, nodes ...NodeID) FaultEvent {
	return harness.CrashAt(at, nodes...)
}

// RestartAt undoes a crash of the named replicas at offset at.
func RestartAt(at time.Duration, nodes ...NodeID) FaultEvent {
	return harness.RestartAt(at, nodes...)
}

// FluctuateAt replaces the base link delay with Uniform(min, max) for
// dur starting at offset at.
func FluctuateAt(at, dur, min, max time.Duration) FaultEvent {
	return harness.FluctuateAt(at, dur, min, max)
}

// SetDelayAt adds Normal(mean, std) delay to every message the named
// replicas send, from offset at.
func SetDelayAt(at time.Duration, mean, std time.Duration, nodes ...NodeID) FaultEvent {
	return harness.SetDelayAt(at, mean, std, nodes...)
}

// SetDropRateAt makes every message independently lost with
// probability rate from offset at.
func SetDropRateAt(at time.Duration, rate float64) FaultEvent {
	return harness.SetDropRateAt(at, rate)
}

// Built-in protocol names for Config.Protocol.
const (
	ProtocolHotStuff     = config.ProtocolHotStuff
	ProtocolTwoChainHS   = config.ProtocolTwoChainHS
	ProtocolStreamlet    = config.ProtocolStreamlet
	ProtocolFastHotStuff = config.ProtocolFastHotStuff
	ProtocolOHS          = config.ProtocolOHS
)

// Byzantine strategy names for Config.Strategy.
const (
	StrategySilence    = config.StrategySilence
	StrategyForking    = config.StrategyForking
	StrategyEquivocate = config.StrategyEquivocate
)

// DefaultConfig returns the paper's Table I defaults.
func DefaultConfig() Config { return config.Default() }

// NewCluster assembles an in-process cluster (replicas are built but
// not started; call Start).
func NewCluster(cfg Config, opts ClusterOptions) (*Cluster, error) {
	return cluster.New(cfg, opts)
}

// RegisterProtocol adds a custom chained-BFT protocol under a name
// usable in Config.Protocol — the framework's prototyping entry point.
func RegisterProtocol(name string, factory func(Env) Rules) error {
	return protocol.Register(name, factory)
}

// Protocols lists every registered protocol name.
func Protocols() []string { return protocol.Names() }

// BuildBlock assembles a standard proposal extending the block that qc
// certifies — the helper honest Proposing rules use.
func BuildBlock(self NodeID, view View, qc *QC, payload []Transaction) *Block {
	return safety.BuildBlock(self, view, qc, payload)
}

// GenesisQC returns the certificate every chain starts from.
func GenesisQC() *QC { return types.GenesisQC() }

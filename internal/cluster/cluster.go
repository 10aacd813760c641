// Package cluster orchestrates an in-process Bamboo deployment: N
// replicas over the channel switch or over real loopback TCP sockets
// (Options.Backend), a shared signature scheme, fault injection
// through the network condition model, benchmark clients, and
// cross-replica consistency checking. Integration tests and the
// harness, which runs every bamboo-bench figure, build on it.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/core"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/election"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/protocol"
	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// clientIDBase offsets client endpoint IDs above any replica ID.
const clientIDBase = 1 << 16

// Backend names accepted by Options.Backend.
const (
	// BackendSwitch deploys over the in-process channel switch — the
	// simulation substrate with scheduler-driven delay modelling.
	BackendSwitch = "switch"
	// BackendTCP deploys one real TCP listener per replica on
	// loopback, with the condition model applied by a per-endpoint
	// shim — declared scenarios over real sockets.
	BackendTCP = "tcp"
)

// Options tunes cluster assembly.
type Options struct {
	// Backend selects the transport: "" or BackendSwitch for the
	// in-process switch, BackendTCP for loopback TCP listeners.
	// Fault semantics (partition/crash/delay/drop) are equivalent on
	// both; crashes on TCP additionally tear down the node's live
	// sockets so reconnect paths run.
	Backend string
	// WithStores attaches a kvstore to every replica.
	WithStores bool
	// OnViolation is invoked on any replica's safety violation.
	OnViolation func(error)
	// Elector overrides leader election for every replica (e.g.
	// hash-based election, the Section V-E design choice); nil uses
	// the configuration's default (round-robin, or static master).
	Elector election.Elector
	// LedgerDir, when set, gives every replica a persistent ledger
	// file (<dir>/replica-<id>.ledger) of its committed chain. When
	// empty, a temporary directory is created and removed on Stop:
	// the ledger doubles as the serving store for deep state sync
	// (catch-up past the forest keep window), so replicas get one by
	// default.
	LedgerDir string
	// DisableLedger turns persistence off entirely; replicas then
	// serve catch-up only from the in-memory forest keep window, a
	// replica isolated past it cannot recover, and no safety WAL is
	// kept (in-process restarts keep the node's memory anyway).
	DisableLedger bool
	// UnbufferedLedger opens each replica's ledger with plain Open
	// instead of OpenBuffered: every append reaches the file before
	// the commit path moves on, the same durability bamboo-server
	// runs with. The buffered default is faster but holds a tail of
	// committed records in memory — exactly the tail a CrashAt loses
	// on the fleet backend; set this when a switch/tcp scenario must
	// model the on-disk footprint a real process crash leaves.
	UnbufferedLedger bool
}

// Cluster is a running in-process deployment over either backend.
type Cluster struct {
	cfg  config.Config
	cond *network.Conditions
	// sw is the in-process switch (nil on the TCP backend).
	sw *network.Switch
	// tcps holds each replica's raw TCP transport and shims the
	// condition wrappers handed to the nodes (both nil on the switch
	// backend). cliShims collects client endpoints for stats; their
	// lifecycle belongs to client.Stop.
	tcps     map[types.NodeID]*network.TCP
	shims    map[types.NodeID]*network.Conditioned
	cliShims []*network.Conditioned
	scheme   crypto.Scheme
	nodes    map[types.NodeID]*core.Node
	stores   map[types.NodeID]*kvstore.Store
	ledgers  []*ledger.Ledger
	wals     []*wal.WAL
	clients  []*client.Client
	nextCli  uint64
	// tmpLedgerDir is the auto-created ledger directory, removed on
	// Stop; empty when the caller supplied LedgerDir (or disabled
	// persistence).
	tmpLedgerDir string

	stopOnce sync.Once
}

// New assembles a cluster from the run configuration. Replicas are
// constructed but not started.
func New(cfg config.Config, opts Options) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	factory, err := protocol.Factory(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cond := network.NewConditions(cfg.Seed)
	cond.SetBaseDelay(cfg.Delay, cfg.DelayStd)
	if cfg.Bandwidth > 0 {
		cond.SetBandwidth(cfg.Bandwidth)
	}

	c := &Cluster{
		cfg:    cfg,
		cond:   cond,
		scheme: scheme,
		nodes:  make(map[types.NodeID]*core.Node, cfg.N),
		stores: make(map[types.NodeID]*kvstore.Store),
	}
	switch opts.Backend {
	case "", BackendSwitch:
		c.sw = network.NewSwitch(cond)
	case BackendTCP:
		if err := c.buildTCP(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: unknown backend %q", opts.Backend)
	}
	withStores := opts.WithStores
	if cfg.SnapshotInterval > 0 {
		// Snapshots serialize the kvstore and compact the ledger the
		// snapshot covers: both halves must exist for the interval to
		// mean anything.
		if opts.DisableLedger {
			return nil, errors.New("cluster: snapshot interval needs the ledger enabled")
		}
		withStores = true
	}
	ledgerDir := opts.LedgerDir
	if ledgerDir == "" && !opts.DisableLedger {
		// Ledger-backed state sync is on by default: without a
		// persistent chain, a replica isolated past the forest keep
		// window can never recover (the exact liveness hole deep
		// catch-up closes).
		dir, err := os.MkdirTemp("", "bamboo-ledger-")
		if err != nil {
			return nil, fmt.Errorf("cluster: ledger dir: %w", err)
		}
		c.tmpLedgerDir = dir
		ledgerDir = dir
	}
	fail := func(err error) (*Cluster, error) {
		for _, led := range c.ledgers {
			_ = led.Close()
		}
		for _, w := range c.wals {
			_ = w.Close()
		}
		if c.sw != nil {
			c.sw.Close()
		}
		for _, sh := range c.shims {
			_ = sh.Close()
		}
		if c.tmpLedgerDir != "" {
			_ = os.RemoveAll(c.tmpLedgerDir)
		}
		return nil, err
	}
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		var ep network.Transport
		if c.sw != nil {
			e, err := c.sw.Join(id)
			if err != nil {
				return fail(err)
			}
			ep = e
		} else {
			ep = c.shims[id]
		}
		nodeOpts := core.Options{OnViolation: opts.OnViolation, Elector: opts.Elector}
		if withStores {
			store := kvstore.New()
			c.stores[id] = store
			nodeOpts.Execute = store.Apply
			// The kvstore doubles as the snapshottable state machine:
			// with it wired, the replica can install peer snapshots
			// during deep catch-up (and capture its own when the
			// interval and a snapshot store are configured).
			nodeOpts.State = store
		}
		if ledgerDir != "" {
			openLedger := ledger.OpenBuffered
			if opts.UnbufferedLedger {
				openLedger = ledger.Open
			}
			led, err := openLedger(
				filepath.Join(ledgerDir, fmt.Sprintf("replica-%d.ledger", i)))
			if err != nil {
				return fail(err)
			}
			nodeOpts.Ledger = led
			c.ledgers = append(c.ledgers, led)
			// The safety WAL rides alongside the ledger: votes and
			// locks survive a restart over a reused LedgerDir, so
			// bootstrap can re-commit the full ledger with no
			// holdback. In-process "crashes" never take the page
			// cache with them, so the no-sync mode suffices.
			w, err := wal.OpenNoSync(
				filepath.Join(ledgerDir, fmt.Sprintf("replica-%d.wal", i)))
			if err != nil {
				return fail(err)
			}
			nodeOpts.WAL = w
			c.wals = append(c.wals, w)
			if withStores {
				snaps, err := snapshot.OpenStore(
					filepath.Join(ledgerDir, fmt.Sprintf("replica-%d.snap", i)))
				if err != nil {
					return fail(err)
				}
				nodeOpts.Snapshots = snaps
			}
		}
		c.nodes[id] = core.NewNode(id, cfg, factory, ep, scheme, nodeOpts)
	}
	return c, nil
}

// buildTCP stands up one real TCP listener per replica on loopback
// (ephemeral ports), cross-wires the dial addresses once every
// transport has bound, and wraps each endpoint in the shared condition
// model so the declared fault schedule applies identically to both
// backends.
func (c *Cluster) buildTCP() error {
	ids := make([]types.NodeID, 0, c.cfg.N)
	for i := 1; i <= c.cfg.N; i++ {
		ids = append(ids, types.NodeID(i))
	}
	c.tcps = make(map[types.NodeID]*network.TCP, c.cfg.N)
	c.shims = make(map[types.NodeID]*network.Conditioned, c.cfg.N)
	for _, id := range ids {
		// Peers start with empty addresses: only known after every
		// listener has bound, then filled in below.
		addrs := make(map[types.NodeID]string, c.cfg.N)
		for _, peer := range ids {
			addrs[peer] = ""
		}
		addrs[id] = "127.0.0.1:0"
		tr, err := network.NewTCP(id, addrs)
		if err != nil {
			for _, sh := range c.shims {
				_ = sh.Close()
			}
			return fmt.Errorf("cluster: tcp backend: %w", err)
		}
		c.tcps[id] = tr
		c.shims[id] = network.Condition(tr, c.cond, ids)
	}
	for _, id := range ids {
		for _, peer := range ids {
			if peer != id {
				c.tcps[id].SetPeerAddr(peer, c.tcps[peer].Addr())
			}
		}
	}
	return nil
}

// Observer returns the replica whose metrics represent the run: the
// highest-ID node, which is always honest (Byzantine nodes take the
// lowest IDs).
func (c *Cluster) Observer() types.NodeID { return types.NodeID(c.cfg.N) }

// Start launches every replica.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

// Stop halts clients first (closing their endpoints), then replicas,
// then the transport substrate — the switch scheduler, or every TCP
// listener and connection — then flushes and closes any ledgers. On
// the TCP backend this leaves no listener or writer goroutine behind
// and no dial retry spinning (the tests assert it by goroutine
// accounting). Stop is idempotent: the harness's defer-based teardown
// and explicit shutdown paths may both call it; only the first call
// acts.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		for _, cl := range c.clients {
			cl.Stop()
		}
		c.clients = nil
		for _, n := range c.nodes {
			n.Stop()
		}
		if c.sw != nil {
			c.sw.Close()
		}
		for _, sh := range c.shims {
			_ = sh.Close()
		}
		for _, led := range c.ledgers {
			_ = led.Close()
		}
		c.ledgers = nil
		for _, w := range c.wals {
			_ = w.Close()
		}
		c.wals = nil
		if c.tmpLedgerDir != "" {
			_ = os.RemoveAll(c.tmpLedgerDir)
			c.tmpLedgerDir = ""
		}
	})
}

// Node returns a replica by ID.
func (c *Cluster) Node(id types.NodeID) *core.Node { return c.nodes[id] }

// Store returns a replica's kvstore (nil without WithStores).
func (c *Cluster) Store(id types.NodeID) *kvstore.Store { return c.stores[id] }

// Conditions exposes the network fault-injection surface: one shared
// condition model, whichever backend carries the messages.
func (c *Cluster) Conditions() *network.Conditions { return c.cond }

// ApplyConditions compiles a declarative condition change onto the
// shared model — the harness fault scheduler's surface, identical in
// meaning to the admin endpoint a fleet deployment exposes per server.
func (c *Cluster) ApplyConditions(spec network.ConditionsSpec) {
	spec.Apply(c.cond, time.Now())
}

// Crash silences a replica in the condition model; on the TCP backend
// it additionally tears down the node's live sockets, so peers observe
// real connection resets and their reconnect paths run. The harness
// compiles CrashAt events onto this.
func (c *Cluster) Crash(id types.NodeID) {
	c.cond.Crash(id)
	if t, ok := c.tcps[id]; ok {
		t.ResetPeerConns()
	}
}

// Restart lifts a crash; torn-down TCP connections re-dial lazily on
// the next send in either direction.
func (c *Cluster) Restart(id types.NodeID) { c.cond.Restart(id) }

// NetworkStats reports deployment-wide message counters: the switch's
// own on the switch backend, the sum over every endpoint (replicas and
// clients) on TCP.
func (c *Cluster) NetworkStats() (msgs, bytes, dropped uint64) {
	if c.sw != nil {
		return c.sw.Stats()
	}
	s := c.TransportStats()
	return s.Msgs, s.Bytes, s.Dropped
}

// TransportStats sums the per-endpoint transport counters of a TCP
// deployment, including connection churn (dials, redials, accepts).
// Zero-valued on the switch backend, whose switch-wide counters
// NetworkStats reports.
func (c *Cluster) TransportStats() network.TransportStats {
	var agg network.TransportStats
	for _, sh := range c.shims {
		agg.Add(sh.Stats())
	}
	for _, sh := range c.cliShims {
		agg.Add(sh.Stats())
	}
	return agg
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() config.Config { return c.cfg }

// NewClient attaches a benchmark client to the deployment: a switch
// endpoint, or — on TCP — its own loopback listener, with every
// replica taught the client's reply address. Either way the endpoint
// goes through the condition model, so partitions and crashes govern
// client traffic exactly as they do replica traffic.
func (c *Cluster) NewClient() (*client.Client, error) {
	c.nextCli++
	id := types.NodeID(clientIDBase + c.nextCli)
	var ep network.Transport
	if c.sw != nil {
		e, err := c.sw.JoinClient(id)
		if err != nil {
			return nil, err
		}
		ep = e
	} else {
		addrs := make(map[types.NodeID]string, c.cfg.N+1)
		addrs[id] = "127.0.0.1:0"
		for rid, tr := range c.tcps {
			addrs[rid] = tr.Addr()
		}
		tr, err := network.NewTCP(id, addrs)
		if err != nil {
			return nil, fmt.Errorf("cluster: client endpoint: %w", err)
		}
		// Replicas reply over the client's own listener; clients are
		// learned via SetPeerAddr, so they stay out of the replicas'
		// broadcast domain.
		for _, rt := range c.tcps {
			rt.SetPeerAddr(id, tr.Addr())
		}
		sh := network.Condition(tr, c.cond, nil)
		c.cliShims = append(c.cliShims, sh)
		ep = sh
	}
	cl := client.New(ep, c.cfg.N, c.cfg.PayloadSize, c.cfg.Seed+int64(c.nextCli))
	c.clients = append(c.clients, cl)
	return cl, nil
}

// HonestNodes lists the non-Byzantine replicas.
func (c *Cluster) HonestNodes() []*core.Node {
	out := make([]*core.Node, 0, c.cfg.N)
	for i := 1; i <= c.cfg.N; i++ {
		id := types.NodeID(i)
		if !c.cfg.IsByzantine(id) {
			out = append(out, c.nodes[id])
		}
	}
	return out
}

// Violations sums safety violations across all replicas; correct runs
// return zero.
func (c *Cluster) Violations() uint64 {
	var total uint64
	for _, n := range c.nodes {
		total += n.Violations()
	}
	return total
}

// ConsistencyCheck verifies that every pair of honest replicas agrees
// on the committed block hash at their common committed height — the
// paper's cross-node consistency check on the main chain.
func (c *Cluster) ConsistencyCheck() error {
	honest := c.HonestNodes()
	ids := make([]types.NodeID, len(honest))
	heights := make([]uint64, len(honest))
	for i, n := range honest {
		ids[i], heights[i] = n.ID(), n.Status().CommittedHeight
	}
	return CheckAgreement(ids, heights, func(id types.NodeID, h uint64) (types.Hash, bool) {
		return c.nodes[id].HashAt(h)
	})
}

// CheckAgreement is the pairwise agreement check behind
// ConsistencyCheck, over any deployment that can report each replica's
// committed height (heights[i] belongs to ids[i]) and its committed
// block hash at a height. The common height is the lowest non-zero
// one — a replica that has committed nothing has nothing to disagree
// about. Hashes are compared there, at half of it, and at 1, not just
// at the tip, to catch divergence that later commits could mask; a
// replica for which hashAt reports nothing at a height (compacted
// under a snapshot, or unreachable) sits that height out.
func CheckAgreement[H comparable](ids []types.NodeID, heights []uint64,
	hashAt func(types.NodeID, uint64) (H, bool)) error {

	min := uint64(0)
	for _, h := range heights {
		if h > 0 && (min == 0 || h < min) {
			min = h
		}
	}
	if min == 0 {
		return nil
	}
	for _, h := range []uint64{min, min / 2, 1} {
		if h == 0 {
			continue
		}
		var want H
		var wantFrom types.NodeID
		for _, id := range ids {
			got, ok := hashAt(id, h)
			if !ok {
				continue
			}
			if wantFrom == 0 {
				want, wantFrom = got, id
				continue
			}
			if got != want {
				return fmt.Errorf("cluster: replicas %s and %s disagree at height %d: %v vs %v",
					wantFrom, id, h, want, got)
			}
		}
	}
	return nil
}

// WaitForHeight blocks until every honest replica's committed height
// reaches the target, or the deadline passes.
func (c *Cluster) WaitForHeight(target uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, n := range c.HonestNodes() {
			if n.Status().CommittedHeight < target {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster: timed out waiting for committed height")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// AggregateChain averages the chain micro-metrics (CGR, BI) over the
// honest replicas, the way the paper reports them "from a replica's
// view".
func (c *Cluster) AggregateChain() metrics.ChainStats {
	honest := c.HonestNodes()
	var agg metrics.ChainStats
	for _, n := range honest {
		agg.Accumulate(n.Tracker().Snapshot())
	}
	agg.AverageRatios(len(honest))
	return agg
}

// Package core is the Bamboo consensus engine: the propose-vote
// machinery every chained-BFT protocol shares. It wires the block
// forest, mempool, quorum aggregation, pacemaker, leader election,
// cryptography, and networking around a protocol's safety.Rules, so a
// protocol implementation is reduced to its four rules (Figure 4 of
// the paper).
//
// Each replica runs a single event-loop goroutine; every message and
// timer event funnels into it, so the forest and rules never need
// locks. Committed blocks are executed and persisted behind it, in
// commit order, on one apply goroutine. Cross-thread reads
// (benchmarker, HTTP API) go through the snapshot published on every
// commit.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bamboo-bft/bamboo/internal/attack"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/election"
	"github.com/bamboo-bft/bamboo/internal/forest"
	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/mempool"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/pacemaker"
	"github.com/bamboo-bft/bamboo/internal/quorum"
	"github.com/bamboo-bft/bamboo/internal/safety"
	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/trace"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// Options configures a replica beyond the run Config.
type Options struct {
	// Execute, if non-nil, is called with each committed block's
	// transactions, in commit order (the execution layer).
	Execute func([]types.Transaction)
	// OnViolation, if non-nil, is called if the forest detects a
	// commit conflicting with the committed chain. Tests use it to
	// assert safety; production deployments would page someone.
	OnViolation func(error)
	// Elector overrides leader election (defaults to round-robin,
	// or static when cfg.Master is set).
	Elector election.Elector
	// Ledger, if non-nil, receives every committed block — the
	// persistent storage the paper's garbage-collection note assumes —
	// and Start replays it, over the latest snapshot, before the
	// replica joins. Append errors are surfaced through
	// OnViolation-style logging: the chain in memory remains
	// authoritative.
	Ledger *ledger.Ledger
	// State, if non-nil, is the replica's snapshottable state machine
	// (deterministic serialization + restore). It is what periodic
	// snapshot capture serializes and what a snapshot install
	// restores; without it the replica can neither take nor install
	// snapshots. Keep it the same state Execute applies to.
	State snapshot.State
	// Snapshots, if non-nil, persists the replica's latest state
	// snapshot and serves manifests/chunks to catch-up requesters.
	// Capture additionally requires Config.SnapshotInterval > 0.
	Snapshots *snapshot.Store
	// WAL, if non-nil, is the replica's durable safety log: the event
	// loop syncs {current view, last-voted view, preferred view,
	// highQC, last timeout view} to it BEFORE any vote or timeout
	// message leaves the node, and Start restores the persisted state
	// (seeding the pacemaker at the pre-crash view), so a SIGKILLed
	// replica can never vote twice in one view — the
	// amnesia-equivocation window. A failed append refuses the vote:
	// staying silent is safe, equivocating is not.
	WAL *wal.WAL
	// TraceSpans and TraceEvents bound the block-lifecycle tracer's
	// rings (spans and per-view events); zero selects the trace
	// package defaults. The tracer is always on — the rings are fixed
	// memory and stamps are lock-free — so these only tune how much
	// history GET /debug/trace can export.
	TraceSpans  int
	TraceEvents int
}

// Status is the replica snapshot published after every commit.
type Status struct {
	CurView         types.View
	CommittedHeight uint64
	CommittedView   types.View
	CommittedHash   types.Hash
	Pool            int
	// PoolRejections counts client transactions the admission policy
	// turned away over the replica's lifetime — the overload signal.
	PoolRejections uint64
	// Syncing reports whether the replica is in deep catch-up —
	// streaming ranged batches from a peer's ledger, or negotiating
	// and fetching a state snapshot.
	Syncing bool
	// SyncApplied counts blocks fast-forwarded through state sync
	// over the replica's lifetime.
	SyncApplied uint64
	// SnapshotHeight and SnapshotDigest describe the replica's latest
	// state snapshot — captured locally on the snapshot interval, or
	// installed from peers during deep catch-up. Zero height means no
	// snapshot yet.
	SnapshotHeight uint64
	SnapshotDigest types.Hash
}

// Node is one replica.
type Node struct {
	id     types.NodeID
	cfg    config.Config
	rules  safety.Rules
	policy safety.Policy

	forest *forest.Forest
	pool   *mempool.Pool
	votes  *quorum.Votes
	pm     *pacemaker.Pacemaker
	elect  election.Elector
	net    network.Transport
	scheme crypto.Scheme

	// lightPool bypasses the mempool for the OHS client path.
	lightPool []types.Transaction

	// pendingQCs holds certificates for blocks not yet attached.
	pendingQCs map[types.Hash]*types.QC
	// echoSeen deduplicates echoed messages (Streamlet).
	echoSeen map[types.Hash]struct{}
	// owned maps transactions this replica accepted to the client
	// endpoint awaiting the commit reply.
	owned map[types.TxID]types.NodeID
	// catchup is the deep catch-up episode state machine: active when
	// the replica's gap outran the forest keep window and it is
	// streaming ranged batches — or negotiating a snapshot — from its
	// peers (see sync.go).
	catchup syncEpisode
	// proposedInView guards against double-proposing in one view.
	proposedInView types.View
	// lastTimeoutView is the highest view this replica has signed a
	// timeout for; the f+1 join rule signs each view at most once.
	lastTimeoutView types.View

	// metrics is the replica's registry (see declareMetrics); tracker
	// and pipeline hold handles into it.
	metrics  *metrics.Registry
	tracker  *metrics.ChainTracker
	pipeline *metrics.PipelineTracker
	trace    *trace.Tracer
	// apply is the ordered apply stage Start launches: every committed
	// block is executed, persisted and traced there, off the event
	// loop. applyQueue bounds its backlog in blocks.
	apply      *applier
	applyQueue int
	opts       Options
	// commitListeners run on the event loop for each committed
	// block; registered before Start (HTTP API waiters).
	commitListeners []func(types.View, types.Hash, []types.Transaction)
	// rejectListeners run on the event loop for each self-submitted
	// transaction the admission policy turns away; registered before
	// Start (the HTTP API's 429 path). Remote submitters get a
	// ReplyMsg with Rejected set instead.
	rejectListeners []func(types.TxID)
	// lightRejections counts lightweight-pool rejections (OHS client
	// path), which bypass the mempool and its counters.
	lightRejections metrics.Counter
	events          chan any
	// started records that Start launched the event loop — the only
	// thing that closes doneCh, so Stop waits on it only then.
	started  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	statusMu sync.Mutex
	status   Status
	// committedHashes[h-1] is the committed block hash at height h,
	// readable from any goroutine (consistency checks).
	committedHashes []types.Hash

	violations *metrics.Counter
}

// proposeEvent asks the loop to propose for a view (possibly delayed
// by the non-responsive wait).
type proposeEvent struct {
	view types.View
	tc   *types.TC
}

// NewNode assembles a replica. The rules factory receives the node's
// forest-backed environment; Byzantine nodes (per cfg) get their rules
// wrapped with the configured attack strategy.
func NewNode(id types.NodeID, cfg config.Config, factory safety.Factory,
	net network.Transport, scheme crypto.Scheme, opts Options) *Node {

	f := forest.New(cfg.KeepWindow())
	env := safety.Env{Forest: f, Self: id, N: cfg.N}
	rules := factory(env)
	if cfg.IsByzantine(id) {
		switch cfg.Strategy {
		case config.StrategyForking:
			rules = attack.NewForking(rules, f, id, attack.DepthFor(cfg.Protocol))
		case config.StrategySilence:
			s := attack.NewSilence(rules)
			if cfg.StrategyDelay > 0 {
				s.ActiveAfter = time.Now().Add(cfg.StrategyDelay)
			}
			rules = s
		case config.StrategyEquivocate:
			rules = attack.NewEquivocate(rules, id)
		}
	}
	elect := opts.Elector
	if elect == nil {
		if cfg.Master != 0 {
			elect = election.NewStatic(cfg.Master)
		} else {
			elect = election.NewRoundRobin(cfg.N)
		}
	}
	pool := mempool.New(cfg.MemSize)
	n := &Node{
		id:         id,
		cfg:        cfg,
		rules:      rules,
		policy:     rules.Policy(),
		forest:     f,
		pool:       pool,
		votes:      quorum.NewVotes(cfg.Quorum()),
		pm:         pacemaker.New(cfg.Timeout, cfg.Quorum()),
		elect:      elect,
		net:        net,
		scheme:     scheme,
		pendingQCs: make(map[types.Hash]*types.QC),
		echoSeen:   make(map[types.Hash]struct{}),
		owned:      make(map[types.TxID]types.NodeID),
		trace:      trace.New(id, opts.TraceSpans, opts.TraceEvents),
		applyQueue: defaultApplyQueue,
		opts:       opts,
		events:     make(chan any, 64),
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	n.status = Status{CurView: 1}
	n.declareMetrics()
	return n
}

// ID returns the replica identity.
func (n *Node) ID() types.NodeID { return n.id }

// Metrics exposes the replica's registry: GET /metrics renders it.
func (n *Node) Metrics() *metrics.Registry { return n.metrics }

// Tracker exposes the chain micro-metrics (CGR, BI).
func (n *Node) Tracker() *metrics.ChainTracker { return n.tracker }

// Pipeline exposes the per-stage hot-path instrumentation: apply lag,
// safety-WAL syncs, and the state-sync and snapshot counters.
func (n *Node) Pipeline() *metrics.PipelineTracker { return n.pipeline }

// Trace exposes the block-lifecycle tracer (GET /debug/trace reads
// its ring snapshot; all stamp methods are lock-free, so reading while
// the replica runs is safe).
func (n *Node) Trace() *trace.Tracer { return n.trace }

// Transport exposes the replica's network endpoint, so operational
// surfaces (the HTTP API's /status) can report transport-level stats
// when the endpoint keeps them (the TCP transport and the conditioned
// shim do; switch endpoints defer to switch-wide counters).
func (n *Node) Transport() network.Transport { return n.net }

// TimeoutsFired reports the pacemaker's lifetime count of view-timer
// expirations — the telemetry plane's view-synchronization health
// counter.
func (n *Node) TimeoutsFired() uint64 { return n.pm.TimeoutsFired() }

// Violations returns how many commit-safety violations the forest
// reported; correct runs keep this at zero.
func (n *Node) Violations() uint64 { return n.violations.Load() }

// LedgerHeight reports the highest height the replica's ledger holds
// on disk — zero without a ledger. Unlike Status().CommittedHeight it
// trails the in-memory chain only by the apply queue, and it is
// monotone within a process lifetime, which makes it the right
// pre-kill anchor for exact-height recovery assertions: everything at
// or below it must be re-committed by bootstrap replay after a crash.
func (n *Node) LedgerHeight() uint64 {
	if n.opts.Ledger == nil {
		return 0
	}
	return n.opts.Ledger.Height()
}

// Status returns the latest published snapshot.
func (n *Node) Status() Status {
	n.statusMu.Lock()
	defer n.statusMu.Unlock()
	s := n.status
	s.Pool = n.pool.Len()
	s.PoolRejections = n.pool.Stats().Rejected + n.lightRejections.Load()
	return s
}

// PoolStats returns the mempool's admission counters (admitted,
// rejected, queued past the soft capacity) — the server-side half of
// the harness's overload accounting.
func (n *Node) PoolStats() mempool.Stats {
	s := n.pool.Stats()
	s.Rejected += n.lightRejections.Load()
	return s
}

// HashAt returns the committed main-chain block hash at a height,
// safely from any goroutine. Heights below a snapshot install point
// hold no hash (their history never passed through this replica) and
// report false.
func (n *Node) HashAt(height uint64) (types.Hash, bool) {
	n.statusMu.Lock()
	defer n.statusMu.Unlock()
	if height == 0 || height > uint64(len(n.committedHashes)) {
		return types.ZeroHash, false
	}
	h := n.committedHashes[height-1]
	if h.IsZero() {
		return types.ZeroHash, false
	}
	return h, true
}

// Submit queues a client transaction directly (in-process fast path
// for benchmarks and examples). The reply is delivered to the client
// endpoint named by the transaction's TxID.Client.
func (n *Node) Submit(tx types.Transaction) {
	select {
	case n.events <- types.RequestMsg{Tx: tx}:
	case <-n.stopCh:
	}
}

// AddCommitListener registers fn to run for every committed block
// (view, block hash, payload). Register before Start; listeners run
// on the event loop, so they must not block.
func (n *Node) AddCommitListener(fn func(types.View, types.Hash, []types.Transaction)) {
	n.commitListeners = append(n.commitListeners, fn)
}

// AddRejectListener registers fn to run for every transaction this
// node itself submitted (Submit — the HTTP API's path) that the
// admission policy turned away. Register before Start; listeners run
// on the event loop, so they must not block. Transactions submitted by
// remote client endpoints are answered with a rejected ReplyMsg over
// the network instead.
func (n *Node) AddRejectListener(fn func(types.TxID)) {
	n.rejectListeners = append(n.rejectListeners, fn)
}

// Start launches the event loop and the ordered apply stage. With a
// ledger, the replica first replays its own snapshot + ledger into
// forest and state machine, so it rejoins at the height it went down
// at — restart cost O(tail missed), not O(chain); a fresh ledger makes
// that a no-op. The first leader proposes once its view timer is
// armed; all other replicas follow the QC chain.
func (n *Node) Start() {
	if n.opts.Ledger != nil {
		n.bootstrap()
	}
	n.restoreSafety()
	n.apply = newApplier(n, n.applyQueue)
	n.pm.Start()
	n.started.Store(true)
	go n.run()
}

// Stop terminates the event loop, then drains the apply stage: every
// block committed before shutdown finishes executing before Stop
// returns. On a node that was never started it returns at once: there
// is no loop to wait for.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopCh)
		if !n.started.Load() {
			return
		}
		<-n.doneCh
		n.pm.Stop()
		n.apply.stop()
	})
}

// run is the replica's single-threaded event loop.
func (n *Node) run() {
	defer close(n.doneCh)
	n.tracker.Views.Add(1)
	n.trace.OnViewEntered(1, n.elect.Leader(1))
	// Kick off the first view: its leader proposes the first block.
	if n.elect.Leader(1) == n.id {
		n.propose(1, nil)
	}
	inbox := n.net.Inbox()
	for {
		select {
		case <-n.stopCh:
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			n.dispatch(env.From, env.Msg)
		case ev := <-n.events:
			n.dispatch(n.id, ev)
		case view := <-n.pm.TimeoutChan():
			n.onLocalTimeout(view)
		}
	}
}

// dispatch routes one event on the loop goroutine. Messages from this
// replica itself count as verified; everything else has its
// signatures checked by the handler.
func (n *Node) dispatch(from types.NodeID, msg any) {
	verified := from == n.id
	switch m := msg.(type) {
	case types.ProposalMsg:
		n.onProposal(from, m, verified)
	case types.VoteMsg:
		n.onVote(m.Vote, verified)
	case types.TimeoutMsg:
		n.onTimeoutMsg(m.Timeout, verified)
	case types.TCMsg:
		n.onTC(m.TC, !verified)
	case types.RequestMsg:
		n.onRequest(from, m.Tx)
	case types.FetchMsg:
		n.onFetch(from, m)
	case types.SyncRequestMsg:
		n.onSyncRequest(from, m)
	case types.SyncResponseMsg:
		// Self-authenticating: the handler verifies the embedded
		// certificates.
		n.onSyncResponse(from, m)
	case types.SnapshotRequestMsg:
		n.onSnapshotRequest(from, m)
	case types.SnapshotManifestMsg:
		// Self-authenticating like sync responses: the handler
		// verifies the carried certificate and cross-checks the
		// digest against f+1 peers before anything is trusted.
		n.onSnapshotManifest(from, m)
	case types.SnapshotChunkMsg:
		n.onSnapshotChunk(from, m)
	case syncRetryEvent:
		n.onSyncRetry(m)
	case proposeEvent:
		n.propose(m.view, m.tc)
	}
}

// publishStatus refreshes the cross-thread snapshot.
func (n *Node) publishStatus() {
	head := n.forest.CommittedHead()
	n.statusMu.Lock()
	n.status.CurView = n.pm.CurView()
	n.status.CommittedHeight = n.forest.CommittedHeight()
	n.status.CommittedView = head.View
	n.status.CommittedHash = head.ID()
	n.status.Syncing = n.catchup.state != syncIdle
	n.status.SyncApplied = n.pipeline.SyncBlocksApplied.Load()
	n.statusMu.Unlock()
}

// noteSnapshot records the replica's freshest snapshot in the status
// surface. Called from the apply stage (capture) and the event loop
// (install); the height check keeps a late capture of an old height
// from shadowing a newer install.
func (n *Node) noteSnapshot(height uint64, digest types.Hash) {
	n.statusMu.Lock()
	if height >= n.status.SnapshotHeight {
		n.status.SnapshotHeight = height
		n.status.SnapshotDigest = digest
	}
	n.statusMu.Unlock()
}

// onExecuted stamps a block's execution completion and feeds its
// per-stage durations into the chain tracker's stage histograms.
// Called from the apply stage's goroutine; both the tracer and the
// stage histograms are safe for that.
func (n *Node) onExecuted(id types.Hash) {
	sp, ok := n.trace.OnExecuted(id)
	if !ok {
		return
	}
	feed := func(s metrics.Stage, from, to int64) {
		if from != 0 && to >= from {
			n.tracker.Stages[s].Record(time.Duration(to - from))
		}
	}
	feed(metrics.StageVerify, sp.Received, sp.Verified)
	feed(metrics.StageVote, sp.Verified, sp.Voted)
	feed(metrics.StageQC, sp.Voted, sp.QCFormed)
	feed(metrics.StageCommit, sp.QCFormed, sp.Committed)
	feed(metrics.StageExecute, sp.Committed, sp.Executed)
}

// warn surfaces a safety violation.
func (n *Node) warn(err error) {
	n.violations.Add(1)
	if n.opts.OnViolation != nil {
		n.opts.OnViolation(fmt.Errorf("replica %s: %w", n.id, err))
	}
}

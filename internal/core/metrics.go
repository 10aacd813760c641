package core

import (
	"slices"
	"sort"
	"strconv"

	"github.com/bamboo-bft/bamboo/internal/metrics"
)

// declareMetrics builds the replica's registry: every series GET
// /metrics serves is declared here, once, and the chain and pipeline
// trackers hold the handles it returns. A new series is one line below
// plus the Add or Record where the event happens.
func (n *Node) declareMetrics() {
	r := &metrics.Registry{}
	n.metrics = r

	// Chain progress.
	chain := &metrics.ChainTracker{
		Committed:   r.Counter("bamboo_committed_blocks_total", "Blocks that reached commitment on this replica."),
		Added:       r.Counter("bamboo_added_blocks_total", "Blocks this replica accepted onto its chain (voted for)."),
		Views:       r.Counter("bamboo_views_total", "Views this replica entered."),
		TxCommitted: r.Counter("bamboo_committed_txs_total", "Transactions carried by committed blocks."),
	}
	n.tracker = chain
	r.Gauge("bamboo_chain_cgr", "Chain growth rate: committed blocks over accepted blocks.", func() float64 { return chain.Snapshot().CGR })
	r.Gauge("bamboo_chain_bi", "Block interval: mean views from proposal to commit.", func() float64 { return chain.Snapshot().BI })
	r.Gauge("bamboo_chain_gini", "Gini coefficient over per-proposer committed-block shares (chain quality).", func() float64 { return chain.Snapshot().Gini })
	// Zero-filled over the cohort, so the series set is stable and a
	// flat-zero proposer is visible.
	proposers := make([]string, n.cfg.N)
	for i := range proposers {
		proposers[i] = strconv.Itoa(i + 1)
	}
	chain.Proposers = r.CounterVec("bamboo_proposer_commits_total", "Committed blocks per proposer (chain-quality raw counts).", "proposer", proposers...)
	stages := slices.Clone(metrics.StageNames[:])
	sort.Strings(stages)
	for i, h := range r.HistogramVec("bamboo_stage_seconds", "Block-lifecycle stage durations (verify, vote, qc, commit, execute).", "stage", stages...) {
		chain.Stages[slices.Index(metrics.StageNames[:], stages[i])] = h
	}

	// Replica status gauges.
	r.Gauge("bamboo_current_view", "The replica's current view.", func() float64 { return float64(n.Status().CurView) })
	r.Gauge("bamboo_committed_height", "The replica's committed chain height.", func() float64 { return float64(n.Status().CommittedHeight) })
	r.Gauge("bamboo_snapshot_height", "Height of the replica's latest state snapshot (0 = none).", func() float64 { return float64(n.Status().SnapshotHeight) })
	r.Gauge("bamboo_syncing", "1 while the replica is in deep catch-up, else 0.", func() float64 {
		if n.Status().Syncing {
			return 1
		}
		return 0
	})
	r.Gauge("bamboo_pool_size", "Transactions currently pooled.", func() float64 { return float64(n.Status().Pool) })

	// Mempool admission.
	r.CounterFunc("bamboo_pool_admitted_total", "Transactions accepted by the admission policy.", func() uint64 { return n.PoolStats().Admitted })
	r.CounterFunc("bamboo_pool_rejected_total", "Transactions turned away by the admission policy (overload signal).", func() uint64 { return n.PoolStats().Rejected })

	// Pipeline: apply stage, state sync, snapshots, restart replay and
	// the safety WAL.
	pipe := &metrics.PipelineTracker{
		ApplyLag:          r.Histogram("bamboo_apply_lag_seconds", "Lag between a block committing and its payload finishing execution."),
		SyncRequestsSent:  r.Counter("bamboo_sync_requests_sent_total", "Ranged catch-up requests issued in deep state sync."),
		SyncBatchesServed: r.Counter("bamboo_sync_batches_served_total", "Ranged batches served to lagging peers."),
		SyncBlocksApplied: r.Counter("bamboo_sync_blocks_applied_total", "Committed blocks fast-forwarded through state sync."),
		SyncRejected:      r.Counter("bamboo_sync_rejected_total", "Sync responses dropped by verification."),
		SnapshotInstalls:  r.Counter("bamboo_snapshot_installs_total", "Peer state snapshots verified and installed."),
		SnapshotsServed:   r.Counter("bamboo_snapshots_served_total", "Snapshot manifests served to catch-up requesters."),
		ReplayedBlocks:    r.Counter("bamboo_replayed_blocks_total", "Blocks replayed from the replica's own ledger at restart."),
		WALSyncWait:       r.Histogram("bamboo_wal_sync_seconds", "Durable safety-state append wait (the per-vote durability tax)."),
	}
	n.pipeline = pipe
	r.CounterFunc("bamboo_blocks_applied_total", "Blocks executed by the ordered apply stage.", func() uint64 { return pipe.ApplyLag.Snapshot().Count })
	r.CounterFunc("bamboo_wal_syncs_total", "Durable safety-state syncs (one fsync'd append per vote or timeout).", func() uint64 { return pipe.WALSyncWait.Snapshot().Count })

	// Pacemaker and safety.
	r.CounterFunc("bamboo_pacemaker_timeouts_fired_total", "View-timer expirations surfaced by the pacemaker.", n.pm.TimeoutsFired)
	n.violations = r.Counter("bamboo_safety_violations_total", "Commit-safety violations the forest reported (must stay 0).")
}

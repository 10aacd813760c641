package metrics

// PipelineStats digests the replica's hot-path instrumentation beyond
// the chain metrics: how far block execution lags behind commitment,
// what state sync, snapshots and restart replay did, and what the
// safety WAL charges the event loop.
type PipelineStats struct {
	// ApplyLag is the latency distribution between a block
	// committing on the event loop and its payload finishing
	// execution on the ordered apply stage.
	ApplyLag LatencySummary
	// BlocksApplied counts blocks executed by the apply stage.
	BlocksApplied uint64
	// SyncRequestsSent counts ranged catch-up requests this replica
	// issued while in deep state sync.
	SyncRequestsSent uint64
	// SyncBatchesServed counts ranged batches this replica served to
	// lagging peers from its ledger and forest.
	SyncBatchesServed uint64
	// SyncBlocksApplied counts committed blocks fast-forwarded through
	// verified state-sync responses.
	SyncBlocksApplied uint64
	// SyncRejected counts sync responses dropped for being
	// unsolicited, mis-ranged, or failing certificate verification —
	// including snapshot manifests and chunks that failed their
	// digest or certificate checks.
	SyncRejected uint64
	// SnapshotInstalls counts state snapshots this replica fetched
	// from peers, verified against f+1 manifests, and installed.
	SnapshotInstalls uint64
	// SnapshotsServed counts snapshot manifests this replica served
	// to catch-up requesters whose gap outran its ledger prefix.
	SnapshotsServed uint64
	// ReplayedBlocks counts committed blocks a restarted replica
	// replayed from its own ledger into forest and state machine
	// before joining — restart cost O(gap), not O(chain).
	ReplayedBlocks uint64
	// WALSyncs counts durable safety-state syncs (one fsync'd append
	// before every vote or timeout leaves the node).
	WALSyncs uint64
	// WALSyncWait is the latency distribution of those appends — the
	// per-vote durability tax the safety WAL charges the event loop.
	WALSyncWait LatencySummary
}

// AddCounters accumulates s's event counters into p — the shared
// result-assembly step of every deployment backend: the in-process
// cluster sums per-replica trackers directly, the fleet harness sums
// per-server slices collected over HTTP. Latency summaries are
// per-replica distributions and do not aggregate; they stay zero in
// the receiver.
func (p *PipelineStats) AddCounters(s PipelineStats) {
	p.BlocksApplied += s.BlocksApplied
	p.SyncRequestsSent += s.SyncRequestsSent
	p.SyncBatchesServed += s.SyncBatchesServed
	p.SyncBlocksApplied += s.SyncBlocksApplied
	p.SyncRejected += s.SyncRejected
	p.SnapshotInstalls += s.SnapshotInstalls
	p.SnapshotsServed += s.SnapshotsServed
	p.ReplayedBlocks += s.ReplayedBlocks
	p.WALSyncs += s.WALSyncs
}

// PipelineTracker holds the replica's handles for PipelineStats, taken
// from its Registry; callers Add or Record on them directly. Blocks
// applied and WAL syncs are the counts of their latency histograms.
type PipelineTracker struct {
	// ApplyLag observes each applied block's lag behind its commit.
	ApplyLag          *Latency
	SyncRequestsSent  *Counter
	SyncBatchesServed *Counter
	SyncBlocksApplied *Counter
	SyncRejected      *Counter
	SnapshotInstalls  *Counter
	SnapshotsServed   *Counter
	ReplayedBlocks    *Counter
	// WALSyncWait observes each durable safety-state append.
	WALSyncWait *Latency
}

// Snapshot digests the tracker.
func (p *PipelineTracker) Snapshot() PipelineStats {
	lag, wal := p.ApplyLag.Snapshot(), p.WALSyncWait.Snapshot()
	return PipelineStats{
		ApplyLag:      lag,
		BlocksApplied: lag.Count,

		SyncRequestsSent:  p.SyncRequestsSent.Load(),
		SyncBatchesServed: p.SyncBatchesServed.Load(),
		SyncBlocksApplied: p.SyncBlocksApplied.Load(),
		SyncRejected:      p.SyncRejected.Load(),

		SnapshotInstalls: p.SnapshotInstalls.Load(),
		SnapshotsServed:  p.SnapshotsServed.Load(),
		ReplayedBlocks:   p.ReplayedBlocks.Load(),

		WALSyncs:    wal.Count,
		WALSyncWait: wal,
	}
}

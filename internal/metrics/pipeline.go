package metrics

import "time"

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

// PipelineTracker accumulates PipelineStats. The zero value is ready
// to use; all methods are safe for concurrent use.
type PipelineTracker struct {
	applyLag Latency
	applied  Counter

	syncRequests Counter
	syncServed   Counter
	syncApplied  Counter
	syncRejected Counter

	snapInstalls Counter
	snapServed   Counter
	replayed     Counter

	walSyncs Counter
	walSync  Latency
}

// OnBlockApplied records a block finishing execution lag behind its
// commit.
func (p *PipelineTracker) OnBlockApplied(lag time.Duration) {
	p.applyLag.Record(lag)
	p.applied.Add(1)
}

// OnSyncRequested records one ranged catch-up request sent.
func (p *PipelineTracker) OnSyncRequested() { p.syncRequests.Add(1) }

// OnSyncServed records one ranged batch served to a lagging peer.
func (p *PipelineTracker) OnSyncServed() { p.syncServed.Add(1) }

// OnSyncApplied records n blocks fast-forwarded through state sync.
func (p *PipelineTracker) OnSyncApplied(n uint64) { p.syncApplied.Add(n) }

// OnSyncRejected records a sync response dropped by verification.
func (p *PipelineTracker) OnSyncRejected() { p.syncRejected.Add(1) }

// OnSnapshotInstalled records a peer snapshot verified and installed.
func (p *PipelineTracker) OnSnapshotInstalled() { p.snapInstalls.Add(1) }

// OnSnapshotServed records a snapshot manifest served to a requester.
func (p *PipelineTracker) OnSnapshotServed() { p.snapServed.Add(1) }

// OnBlocksReplayed records n blocks replayed from the replica's own
// ledger during restart bootstrap.
func (p *PipelineTracker) OnBlocksReplayed(n uint64) { p.replayed.Add(n) }

// OnWALSync records one durable safety-state append and how long the
// event loop waited for it.
func (p *PipelineTracker) OnWALSync(d time.Duration) {
	p.walSyncs.Add(1)
	p.walSync.Record(d)
}

// SyncApplied returns the running count of sync-applied blocks (the
// replica status surface reads it without a full snapshot).
func (p *PipelineTracker) SyncApplied() uint64 { return p.syncApplied.Load() }

// Hists exports the tracker's latency histograms in raw mergeable
// form, keyed for a Prometheus exposition (seconds histograms named
// bamboo_<key>_seconds).
func (p *PipelineTracker) Hists() map[string]HistData {
	return map[string]HistData{
		"apply_lag": p.applyLag.Export(),
		"wal_sync":  p.walSync.Export(),
	}
}

// Snapshot digests the tracker.
func (p *PipelineTracker) Snapshot() PipelineStats {
	return PipelineStats{
		ApplyLag:      p.applyLag.Snapshot(),
		BlocksApplied: p.applied.Load(),

		SyncRequestsSent:  p.syncRequests.Load(),
		SyncBatchesServed: p.syncServed.Load(),
		SyncBlocksApplied: p.syncApplied.Load(),
		SyncRejected:      p.syncRejected.Load(),

		SnapshotInstalls: p.snapInstalls.Load(),
		SnapshotsServed:  p.snapServed.Load(),
		ReplayedBlocks:   p.replayed.Load(),

		WALSyncs:    p.walSyncs.Load(),
		WALSyncWait: p.walSync.Snapshot(),
	}
}

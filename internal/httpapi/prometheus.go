package httpapi

// prometheus.go renders the replica's telemetry in the Prometheus text
// exposition format (version 0.0.4) with no client library: the format
// is lines of `name{labels} value` under `# HELP` / `# TYPE` headers,
// and hand-rolling it keeps the module dependency-free while remaining
// scrape-compatible with any Prometheus, VictoriaMetrics, or OpenMetrics
// collector. Histograms follow the convention exactly: cumulative
// `_bucket{le="..."}` series over the shared bamboo bucket geometry,
// a `+Inf` bucket, and `_sum` / `_count` — durations in seconds.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/bamboo-bft/bamboo/internal/metrics"
)

// expo accumulates one exposition document.
type expo struct {
	b strings.Builder
}

func (e *expo) header(name, typ, help string) {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (e *expo) counter(name, help string, v uint64) {
	e.header(name, "counter", help)
	fmt.Fprintf(&e.b, "%s %d\n", name, v)
}

func (e *expo) gauge(name, help string, v float64) {
	e.header(name, "gauge", help)
	fmt.Fprintf(&e.b, "%s %s\n", name, formatFloat(v))
}

// histogram renders one labeled histogram series set (pass labels ""
// for an unlabeled histogram). The header is the caller's job, so one
// family (e.g. bamboo_stage_seconds) can carry several label values.
func (e *expo) histogram(name, labels string, h metrics.HistData) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		upper := metrics.HistBucketUpper(i).Seconds()
		fmt.Fprintf(&e.b, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, formatFloat(upper), cum)
	}
	fmt.Fprintf(&e.b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count)
	if labels == "" {
		fmt.Fprintf(&e.b, "%s_sum %s\n", name, formatFloat(float64(h.Sum)/1e9))
		fmt.Fprintf(&e.b, "%s_count %d\n", name, h.Count)
	} else {
		fmt.Fprintf(&e.b, "%s_sum{%s} %s\n", name, labels, formatFloat(float64(h.Sum)/1e9))
		fmt.Fprintf(&e.b, "%s_count{%s} %d\n", name, labels, h.Count)
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// handleMetrics is GET /metrics: the Prometheus exposition of every
// replica counter and histogram. A request that explicitly asks for
// JSON gets 410 Gone pointing at /chain — the old JSON shape moved
// there when the exposition took over the conventional path.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "application/json") {
		http.Error(w, "the JSON metrics document moved to /chain; /metrics now serves the Prometheus text exposition", http.StatusGone)
		return
	}

	chain := s.node.Tracker().Snapshot()
	pipe := s.node.Pipeline().Snapshot()
	pool := s.node.PoolStats()
	status := s.node.Status()

	var e expo

	// Chain progress.
	e.counter("bamboo_committed_blocks_total", "Blocks that reached commitment on this replica.", chain.BlocksCommitted)
	e.counter("bamboo_added_blocks_total", "Blocks this replica accepted onto its chain (voted for).", chain.BlocksAdded)
	e.counter("bamboo_views_total", "Views this replica entered.", chain.ViewsEntered)
	e.counter("bamboo_committed_txs_total", "Transactions carried by committed blocks.", chain.TxCommitted)
	e.gauge("bamboo_chain_cgr", "Chain growth rate: committed blocks over accepted blocks.", chain.CGR)
	e.gauge("bamboo_chain_bi", "Block interval: mean views from proposal to commit.", chain.BI)
	e.gauge("bamboo_chain_gini", "Gini coefficient over per-proposer committed-block shares (chain quality).", chain.Gini)

	// Per-proposer committed blocks, zero-filled over the cohort so the
	// series set is stable and a flat-zero proposer is visible.
	e.header("bamboo_proposer_commits_total", "counter", "Committed blocks per proposer (chain-quality raw counts).")
	for id := 1; id <= chain.Cohort; id++ {
		fmt.Fprintf(&e.b, "bamboo_proposer_commits_total{proposer=\"%d\"} %d\n", id, chain.ProposerCommits[uint32(id)])
	}

	// Per-stage block-lifecycle histograms.
	e.header("bamboo_stage_seconds", "histogram", "Block-lifecycle stage durations (verify, vote, qc, commit, execute).")
	stageKeys := make([]string, 0, len(chain.Stages))
	for k := range chain.Stages {
		stageKeys = append(stageKeys, k)
	}
	sort.Strings(stageKeys)
	for _, k := range stageKeys {
		e.histogram("bamboo_stage_seconds", fmt.Sprintf("stage=%q", k), chain.Stages[k])
	}

	// Replica status gauges.
	e.gauge("bamboo_current_view", "The replica's current view.", float64(status.CurView))
	e.gauge("bamboo_committed_height", "The replica's committed chain height.", float64(status.CommittedHeight))
	e.gauge("bamboo_snapshot_height", "Height of the replica's latest state snapshot (0 = none).", float64(status.SnapshotHeight))
	syncing := 0.0
	if status.Syncing {
		syncing = 1
	}
	e.gauge("bamboo_syncing", "1 while the replica is in deep catch-up, else 0.", syncing)
	e.gauge("bamboo_pool_size", "Transactions currently pooled.", float64(status.Pool))
	e.gauge("bamboo_pool_overflow", "Pooled transactions currently past the soft capacity.", float64(status.PoolQueued))

	// Mempool admission.
	e.counter("bamboo_pool_admitted_total", "Transactions accepted by the admission policy.", pool.Admitted)
	e.counter("bamboo_pool_rejected_total", "Transactions turned away by the admission policy (overload signal).", pool.Rejected)
	e.counter("bamboo_pool_queued_total", "Admissions that landed in the overflow band past the soft capacity.", pool.Queued)

	// Pipeline counters.
	e.counter("bamboo_blocks_applied_total", "Blocks executed by the ordered apply stage.", pipe.BlocksApplied)
	e.counter("bamboo_sync_requests_sent_total", "Ranged catch-up requests issued in deep state sync.", pipe.SyncRequestsSent)
	e.counter("bamboo_sync_batches_served_total", "Ranged batches served to lagging peers.", pipe.SyncBatchesServed)
	e.counter("bamboo_sync_blocks_applied_total", "Committed blocks fast-forwarded through state sync.", pipe.SyncBlocksApplied)
	e.counter("bamboo_sync_rejected_total", "Sync responses dropped by verification.", pipe.SyncRejected)
	e.counter("bamboo_snapshot_installs_total", "Peer state snapshots verified and installed.", pipe.SnapshotInstalls)
	e.counter("bamboo_snapshots_served_total", "Snapshot manifests served to catch-up requesters.", pipe.SnapshotsServed)
	e.counter("bamboo_replayed_blocks_total", "Blocks replayed from the replica's own ledger at restart.", pipe.ReplayedBlocks)
	e.counter("bamboo_wal_syncs_total", "Durable safety-state syncs (one fsync'd append per vote or timeout).", pipe.WALSyncs)

	// Pipeline latency histograms.
	pipeHists := s.node.Pipeline().Hists()
	for _, ph := range []struct{ key, help string }{
		{"apply_lag", "Lag between a block committing and its payload finishing execution."},
		{"wal_sync", "Durable safety-state append wait (the per-vote durability tax)."},
	} {
		h, ok := pipeHists[ph.key]
		if !ok {
			continue
		}
		full := "bamboo_" + ph.key + "_seconds"
		e.header(full, "histogram", ph.help)
		e.histogram(full, "", h)
	}

	// Pacemaker and safety.
	e.counter("bamboo_pacemaker_timeouts_fired_total", "View-timer expirations surfaced by the pacemaker.", s.node.TimeoutsFired())
	e.counter("bamboo_safety_violations_total", "Commit-safety violations the forest reported (must stay 0).", s.node.Violations())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(e.b.String()))
}

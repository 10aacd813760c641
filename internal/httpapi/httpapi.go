// Package httpapi exposes a replica over the RESTful interface the
// paper's client library uses (Section III-D), so external benchmark
// drivers (YCSB-style) can submit transactions over HTTP and replicas
// can be inspected and perturbed at run time.
//
// Endpoints:
//
//	POST /tx      submit a transaction; the response returns when the
//	              transaction commits (or the request times out).
//	GET  /status  replica snapshot: current view, committed height,
//	              state-sync progress (Syncing/SyncApplied), the
//	              apply stage's lag behind commit, and — on TCP
//	              deployments — the endpoint's transport counters
//	              (msgs, bytes, dials).
//	GET  /hash    committed block hash at ?height=N (consistency check).
//	GET  /metrics Prometheus text exposition of every series in the
//	              replica's metrics registry (chain, stages, mempool
//	              admission, WAL syncs, sync, snapshot, pipeline).
//	              Scrape-ready with no client library. The same chain
//	              and pipeline counters are served as JSON by
//	              GET /admin/result (see admin.go).
//	GET  /debug/trace
//	              block-lifecycle trace rings: span per block with
//	              stage timestamps, interleaved per-view events. JSON
//	              by default; ?format=chrome emits the Chrome
//	              trace-event array chrome://tracing loads directly.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bamboo-bft/bamboo/internal/core"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Server is the HTTP front end of one replica.
type Server struct {
	node    *core.Node
	timeout time.Duration

	// admin surface (see admin.go); cond is optional and set once
	// before the server starts accepting requests.
	ready atomic.Bool
	cond  *network.Conditions

	mu      sync.Mutex
	nextSeq uint64
	client  uint64
	waiters map[types.TxID]chan commitInfo
}

type commitInfo struct {
	view     types.View
	blockID  types.Hash
	rejected bool
}

// New creates a server for the node. clientID namespaces the
// transaction IDs this server mints (use the replica's ID); timeout
// bounds how long POST /tx waits for the commit.
func New(node *core.Node, clientID uint64, timeout time.Duration) *Server {
	s := &Server{
		node:    node,
		timeout: timeout,
		client:  clientID,
		waiters: make(map[types.TxID]chan commitInfo),
	}
	node.AddCommitListener(s.onCommit)
	node.AddRejectListener(s.onReject)
	return s
}

// onCommit resolves waiting POST /tx requests.
func (s *Server) onCommit(view types.View, blockID types.Hash, txs []types.Transaction) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range txs {
		if ch, ok := s.waiters[txs[i].ID]; ok {
			delete(s.waiters, txs[i].ID)
			ch <- commitInfo{view: view, blockID: blockID}
		}
	}
}

// onReject resolves a waiting POST /tx request whose transaction the
// admission policy turned away — the 429 path.
func (s *Server) onReject(id types.TxID) {
	s.mu.Lock()
	ch, ok := s.waiters[id]
	if ok {
		delete(s.waiters, id)
	}
	s.mu.Unlock()
	if ok {
		ch <- commitInfo{rejected: true}
	}
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tx", s.handleTx)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /hash", s.handleHash)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /admin/conditions", s.handleConditions)
	mux.HandleFunc("GET /admin/result", s.handleResult)
	return mux
}

// txRequest is the POST /tx body.
type txRequest struct {
	// Command is the transaction payload (the kvstore command or
	// arbitrary bytes for benchmarking).
	Command []byte `json:"command"`
}

// txResponse is the POST /tx reply. A transaction the admission policy
// turned away answers 429 with Rejected set — the client's cue to back
// off and retry, distinct from the 504 of a commit that timed out.
type txResponse struct {
	Committed bool       `json:"committed"`
	Rejected  bool       `json:"rejected,omitempty"`
	View      types.View `json:"view,omitempty"`
	Block     string     `json:"block,omitempty"`
	LatencyMS float64    `json:"latencyMs"`
}

func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	var req txRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.nextSeq++
	id := types.TxID{Client: s.client, Seq: s.nextSeq}
	ch := make(chan commitInfo, 1)
	s.waiters[id] = ch
	s.mu.Unlock()

	start := time.Now()
	s.node.Submit(types.Transaction{
		ID:             id,
		Command:        req.Command,
		SubmitUnixNano: start.UnixNano(),
	})

	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	var resp txResponse
	select {
	case info := <-ch:
		if info.rejected {
			resp = txResponse{
				Rejected:  true,
				LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
			}
			w.WriteHeader(http.StatusTooManyRequests)
			break
		}
		resp = txResponse{
			Committed: true,
			View:      info.view,
			Block:     info.blockID.String(),
			LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		}
	case <-timer.C:
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		resp = txResponse{Committed: false, LatencyMS: float64(time.Since(start)) / float64(time.Millisecond)}
		w.WriteHeader(http.StatusGatewayTimeout)
	case <-r.Context().Done():
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		return
	}
	writeJSON(w, resp)
}

// statusResponse augments the replica snapshot (which carries the
// state-sync progress and snapshot-height fields) with the apply lag
// and the snapshot/restart counters, so operators can see at a glance
// whether execution keeps up with commits, whether the replica is
// still streaming catch-up batches, and how it last recovered
// (snapshot install vs ledger replay). StateDigest renders the latest snapshot
// digest in hex (empty until a snapshot exists). On transports that
// keep their own counters (TCP deployments), Transport reports the
// endpoint's traffic and connection churn; it is omitted on the
// in-process switch, whose counters are deployment-wide.
type statusResponse struct {
	core.Status
	// SnapshotDigest shadows the embedded Status field out of the
	// JSON (an outer field with the same name dominates; left empty,
	// omitempty then drops it): the digest is served once, as the hex
	// StateDigest below. A `json:"-"` tag would not work here — such
	// fields are ignored entirely and the embedded one would marshal.
	SnapshotDigest   string                  `json:"SnapshotDigest,omitempty"`
	StateDigest      string                  `json:"stateDigest,omitempty"`
	SnapshotInstalls uint64                  `json:"snapshotInstalls"`
	SnapshotsServed  uint64                  `json:"snapshotsServed"`
	ReplayedBlocks   uint64                  `json:"replayedBlocks"`
	ApplyLag         metrics.LatencySummary  `json:"applyLag"`
	Transport        *network.TransportStats `json:"transport,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	p := s.node.Pipeline().Snapshot()
	resp := statusResponse{
		Status:           s.node.Status(),
		SnapshotInstalls: p.SnapshotInstalls,
		SnapshotsServed:  p.SnapshotsServed,
		ReplayedBlocks:   p.ReplayedBlocks,
		ApplyLag:         p.ApplyLag,
	}
	if !resp.Status.SnapshotDigest.IsZero() {
		resp.StateDigest = fmt.Sprintf("%x", resp.Status.SnapshotDigest[:])
	}
	if st, ok := s.node.Transport().(interface{ Stats() network.TransportStats }); ok {
		stats := st.Stats()
		resp.Transport = &stats
	}
	writeJSON(w, resp)
}

func (s *Server) handleHash(w http.ResponseWriter, r *http.Request) {
	height, err := strconv.ParseUint(r.URL.Query().Get("height"), 10, 64)
	if err != nil {
		http.Error(w, "height parameter required", http.StatusBadRequest)
		return
	}
	hash, ok := s.node.HashAt(height)
	if !ok {
		http.Error(w, "height not committed", http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]string{"hash": fmt.Sprintf("%x", hash[:])})
}

// handleMetrics is GET /metrics: the replica registry's Prometheus
// text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.node.Metrics().WriteText(w)
}

// handleTrace serves the block-lifecycle trace rings: the JSON export
// by default, the Chrome trace-event array under ?format=chrome (save
// it to a file and load it in chrome://tracing or Perfetto).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ex := s.node.Trace().Snapshot()
	if r.URL.Query().Get("format") == "chrome" {
		writeJSON(w, ex.Chrome())
		return
	}
	writeJSON(w, ex)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; nothing further to do.
		_ = err
	}
}

package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/bamboo-bft/bamboo/internal/core"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
)

// The admin surface is the control plane a fleet supervisor drives a
// real multi-process deployment through:
//
//	GET  /readyz                    readiness: consensus sockets up and
//	                                bootstrap replay done (503 before).
//	POST /admin/conditions          apply a declarative condition change
//	                                (network.ConditionsSpec) to this
//	                                server's conditioned transport —
//	                                remote fault injection for
//	                                partitions, delays, loss.
//	GET  /admin/result              this server's slice of a harness
//	                                Result: chain/pipeline/transport
//	                                stats, committed and snapshot
//	                                heights, violations, PID.

// SetReady marks the replica ready: transport bound, bootstrap replay
// complete, event loop running. Call it after node.Start() returns.
func (s *Server) SetReady() { s.ready.Store(true) }

// SetConditions attaches the condition model judging this server's
// transport, enabling POST /admin/conditions.
func (s *Server) SetConditions(cond *network.Conditions) { s.cond = cond }

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := s.ready.Load()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]bool{"ready": ready})
}

func (s *Server) handleConditions(w http.ResponseWriter, r *http.Request) {
	if s.cond == nil {
		http.Error(w, "replica has no conditioned transport", http.StatusServiceUnavailable)
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec network.ConditionsSpec
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad spec: %v", err), http.StatusBadRequest)
		return
	}
	if err := spec.Validate(); err != nil {
		// Validate before Apply: a half-applied spec would leave the
		// fleet in a state no schedule declares.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec.Apply(s.cond, time.Now())
	writeJSON(w, map[string]bool{"ok": true})
}

// ReplicaResult is one server's slice of a deployment-wide result: the
// node-local stats a fleet harness collects over HTTP and merges into
// a single harness.Result. The PID makes the process boundary
// auditable — a merged fleet result can prove each replica ran in its
// own OS process (and that a restart leg really re-exec'd).
type ReplicaResult struct {
	ID              uint64 `json:"id"`
	Pid             int    `json:"pid"`
	CommittedHeight uint64 `json:"committedHeight"`
	// LedgerHeight is the highest height on the replica's disk ledger
	// at fetch time. Fetched just before a SIGKILL it lower-bounds
	// what the next incarnation must replay: the ledger only grows
	// while the process lives, so a full-ledger bootstrap replay
	// re-commits at least this many heights.
	LedgerHeight   uint64                 `json:"ledgerHeight"`
	SnapshotHeight uint64                 `json:"snapshotHeight"`
	Violations     uint64                 `json:"violations"`
	Chain          metrics.ChainStats     `json:"chain"`
	Pipeline       metrics.PipelineStats  `json:"pipeline"`
	Transport      network.TransportStats `json:"transport"`
	// Mempool admission counters, so the fleet harness can compute
	// server-side rejection deltas per measurement window.
	PoolAdmitted uint64 `json:"poolAdmitted"`
	PoolRejected uint64 `json:"poolRejected"`
}

// ResultOf reads a replica's node-local result slice — the one record
// /admin/result serves and the in-process harness merges. Pid is left
// to the caller: only a server process stamps its own.
func ResultOf(node *core.Node) ReplicaResult {
	st := node.Status()
	ps := node.PoolStats()
	res := ReplicaResult{
		ID:              uint64(node.ID()),
		CommittedHeight: st.CommittedHeight,
		LedgerHeight:    node.LedgerHeight(),
		SnapshotHeight:  st.SnapshotHeight,
		Violations:      node.Violations(),
		Chain:           node.Tracker().Snapshot(),
		Pipeline:        node.Pipeline().Snapshot(),
		PoolAdmitted:    ps.Admitted,
		PoolRejected:    ps.Rejected,
	}
	if tr, ok := node.Transport().(interface{ Stats() network.TransportStats }); ok {
		res.Transport = tr.Stats()
	}
	return res
}

func (s *Server) handleResult(w http.ResponseWriter, _ *http.Request) {
	res := ResultOf(s.node)
	res.Pid = os.Getpid()
	writeJSON(w, res)
}

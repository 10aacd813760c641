package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/bamboo-bft/bamboo/internal/core"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/snapshot"
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
//	GET  /admin/snapshot/manifest   latest snapshot manifest (heights,
//	                                digests, chunking), 404 until a
//	                                snapshot exists.
//	GET  /admin/snapshot/chunk/{i}  raw chunk bytes; optional ?height=
//	                                pins the snapshot generation (409 on
//	                                mismatch), so multi-GB state moves
//	                                over HTTP instead of competing with
//	                                votes on the consensus sockets.

// SetReady marks the replica ready: transport bound, bootstrap replay
// complete, event loop running. Call it after node.Start() returns.
func (s *Server) SetReady() { s.ready.Store(true) }

// SetConditions attaches the condition model judging this server's
// transport, enabling POST /admin/conditions.
func (s *Server) SetConditions(cond *network.Conditions) { s.cond = cond }

// SetSnapshots attaches the replica's snapshot store, enabling the
// /admin/snapshot endpoints.
func (s *Server) SetSnapshots(st *snapshot.Store) { s.snaps = st }

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
	PoolQueued   uint64 `json:"poolQueued"`
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
		PoolQueued:      ps.Queued,
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

// SnapshotManifest describes the server's latest snapshot for
// out-of-band HTTP transfer: everything a fetcher needs to stream and
// verify chunks. The same trust model as the consensus-socket path
// applies — the digest is only as good as its source, so a fetcher
// cross-checks manifests across f+1 servers before streaming.
type SnapshotManifest struct {
	Height      uint64   `json:"height"`
	Block       string   `json:"block"`
	StateDigest string   `json:"stateDigest"`
	TotalSize   uint64   `json:"totalSize"`
	ChunkSize   uint32   `json:"chunkSize"`
	Chunks      []string `json:"chunks"`
}

func (s *Server) handleSnapshotManifest(w http.ResponseWriter, _ *http.Request) {
	if s.snaps == nil {
		http.Error(w, "replica has no snapshot store", http.StatusNotFound)
		return
	}
	snap, digests, ok := s.snaps.Latest()
	if !ok {
		http.Error(w, "no snapshot yet", http.StatusNotFound)
		return
	}
	blockID := snap.Block.ID()
	m := SnapshotManifest{
		Height:      snap.Height,
		Block:       fmt.Sprintf("%x", blockID[:]),
		StateDigest: fmt.Sprintf("%x", snap.StateDigest[:]),
		TotalSize:   uint64(len(snap.Payload)),
		ChunkSize:   snapshot.ChunkSize,
		Chunks:      make([]string, 0, len(digests)),
	}
	for _, d := range digests {
		m.Chunks = append(m.Chunks, fmt.Sprintf("%x", d[:]))
	}
	writeJSON(w, m)
}

func (s *Server) handleSnapshotChunk(w http.ResponseWriter, r *http.Request) {
	if s.snaps == nil {
		http.Error(w, "replica has no snapshot store", http.StatusNotFound)
		return
	}
	idx, err := strconv.ParseUint(r.PathValue("i"), 10, 32)
	if err != nil {
		http.Error(w, "bad chunk index", http.StatusBadRequest)
		return
	}
	snap, _, ok := s.snaps.Latest()
	if !ok {
		http.Error(w, "no snapshot yet", http.StatusNotFound)
		return
	}
	// A fetcher pins the generation it negotiated via ?height=: if a
	// newer snapshot replaced it mid-transfer, mixing chunks across
	// generations must fail loudly, not corrupt silently.
	if hq := r.URL.Query().Get("height"); hq != "" {
		want, err := strconv.ParseUint(hq, 10, 64)
		if err != nil {
			http.Error(w, "bad height", http.StatusBadRequest)
			return
		}
		if want != snap.Height {
			http.Error(w, fmt.Sprintf("snapshot advanced to height %d", snap.Height),
				http.StatusConflict)
			return
		}
	}
	data := snapshot.Chunk(snap.Payload, snapshot.ChunkSize, uint32(idx))
	if data == nil {
		http.Error(w, "chunk index out of range", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Snapshot-Height", strconv.FormatUint(snap.Height, 10))
	_, _ = w.Write(data)
}

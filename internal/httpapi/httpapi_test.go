package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// startAPICluster runs a 4-node in-process cluster and exposes the
// observer replica over httptest.
func startAPICluster(t *testing.T) (*cluster.Cluster, *httptest.Server) {
	t.Helper()
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 20
	cfg.MemSize = 10000
	cfg.Timeout = 150 * time.Millisecond
	c, err := cluster.New(cfg, cluster.Options{WithStores: true})
	if err != nil {
		t.Fatal(err)
	}
	node := c.Node(c.Observer())
	api := New(node, 9001, 5*time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})
	return c, srv
}

func TestSubmitTxCommits(t *testing.T) {
	_, srv := startAPICluster(t)
	body, err := json.Marshal(txRequest{Command: kvstore.EncodeSet("k", []byte("v"), 0)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out txResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Committed {
		t.Fatalf("transaction not committed: %+v", out)
	}
	if out.LatencyMS <= 0 || out.View == 0 || out.Block == "" {
		t.Fatalf("incomplete commit info: %+v", out)
	}
}

func TestSubmitAppliesCommand(t *testing.T) {
	c, srv := startAPICluster(t)
	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeSet("color", []byte("green"), 0)})
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	// The observer's store applies on the commit path that resolved
	// the request, so the value must be visible promptly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if v, ok := c.Store(c.Observer()).Get("color"); ok && string(v) == "green" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("committed command not applied to the kvstore")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatusAndMetrics(t *testing.T) {
	_, srv := startAPICluster(t)
	// Push one tx so the chain moves.
	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeNoop(0)})
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	resp, err = http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		CurView         uint64
		CommittedHeight uint64
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if status.CommittedHeight == 0 || status.CurView == 0 {
		t.Fatalf("empty status: %+v", status)
	}

	resp, err = http.Get(srv.URL + "/admin/result")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Chain struct {
			BlocksCommitted uint64
			TxCommitted     uint64
		} `json:"chain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if m.Chain.BlocksCommitted == 0 {
		t.Fatalf("no committed blocks in metrics: %+v", m)
	}
}

func TestHashEndpoint(t *testing.T) {
	c, srv := startAPICluster(t)
	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeNoop(0)})
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	h := c.Node(c.Observer()).Status().CommittedHeight
	if h == 0 {
		t.Fatal("no committed height")
	}
	resp, err = http.Get(fmt.Sprintf("%s/hash?height=%d", srv.URL, h))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["hash"]) != 64 {
		t.Fatalf("hash = %q", out["hash"])
	}
	// Unknown heights 404; bad parameters 400.
	resp, err = http.Get(srv.URL + "/hash?height=99999999")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown height status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/hash")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing height status = %d", resp.StatusCode)
	}
}

// TestStatusSnapshotSurface: with the snapshot interval configured,
// /status exposes the replica's snapshot height, the hex state
// digest, and the snapshot/restart pipeline counters — the operator's
// view of how the replica would recover.
func TestStatusSnapshotSurface(t *testing.T) {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 20
	cfg.MemSize = 10000
	cfg.Timeout = 150 * time.Millisecond
	cfg.ForestKeep = 8
	cfg.SnapshotInterval = 8
	c, err := cluster.New(cfg, cluster.Options{WithStores: true})
	if err != nil {
		t.Fatal(err)
	}
	node := c.Node(c.Observer())
	api := New(node, 9002, 5*time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})
	// Commit one command, then wait out the first snapshot interval
	// (the chain keeps committing empty blocks on its own).
	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeSet("k", []byte("v"), 0)})
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for node.Status().SnapshotHeight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot captured within the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if h, ok := raw["SnapshotHeight"].(float64); !ok || h < float64(cfg.SnapshotInterval) {
		t.Fatalf("snapshot height missing or low: %v", raw["SnapshotHeight"])
	}
	digest, _ := raw["stateDigest"].(string)
	if len(digest) != 64 {
		t.Fatalf("state digest = %q, want 64 hex chars", digest)
	}
	if _, leaked := raw["SnapshotDigest"]; leaked {
		t.Fatal("raw digest byte array leaked into /status next to the hex form")
	}
	for _, key := range []string{"snapshotInstalls", "snapshotsServed", "replayedBlocks"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("/status missing %q", key)
		}
	}
}

func TestBadTxBody(t *testing.T) {
	_, srv := startAPICluster(t)
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestTxRejectedOverloaded: with the rest of the cluster crashed the
// observer's tiny mempool cannot drain, so concurrent submissions past
// its capacity must come back as HTTP 429 with the rejection flagged
// in the body — the typed overload signal remote clients key off.
func TestTxRejectedOverloaded(t *testing.T) {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 4
	cfg.MemSize = 8
	cfg.Timeout = 150 * time.Millisecond
	c, err := cluster.New(cfg, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node := c.Node(c.Observer())
	api := New(node, 9001, 500*time.Millisecond)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})
	for id := 1; id <= 3; id++ {
		c.Crash(types.NodeID(id))
	}

	const posts = 48
	type outcome struct {
		status int
		body   txResponse
	}
	results := make(chan outcome, posts)
	for i := 0; i < posts; i++ {
		go func(i int) {
			body, _ := json.Marshal(txRequest{Command: []byte(fmt.Sprintf("tx-%d", i))})
			resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			var out txResponse
			_ = json.NewDecoder(resp.Body).Decode(&out)
			_ = resp.Body.Close()
			results <- outcome{status: resp.StatusCode, body: out}
		}(i)
	}
	var rejected int
	for i := 0; i < posts; i++ {
		res := <-results
		if res.status == http.StatusTooManyRequests {
			if !res.body.Rejected {
				t.Fatalf("429 without rejected flag: %+v", res.body)
			}
			if res.body.Committed {
				t.Fatalf("rejected transaction claims commit: %+v", res.body)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatalf("no 429s from %d posts into an %d-slot pool with consensus halted", posts, cfg.MemSize)
	}
	if st := node.PoolStats(); st.Rejected == 0 {
		t.Fatal("pool counters never recorded a rejection")
	}
}

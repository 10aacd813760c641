package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
)

// TestPipelineMetricsExposed: /status reports the apply stage's lag
// behind commit and /chain the apply stage's block counter.
func TestPipelineMetricsExposed(t *testing.T) {
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
	api := New(c.Node(c.Observer()), 9002, 5*time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})

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
		CommittedHeight uint64
		ApplyLag        struct{ Count uint64 } `json:"applyLag"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if status.CommittedHeight == 0 {
		t.Fatalf("no commit: %+v", status)
	}
	if status.ApplyLag.Count == 0 {
		t.Fatalf("no apply-lag samples on the status endpoint: %+v", status)
	}

	resp, err = http.Get(srv.URL + "/chain")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		BlocksCommitted uint64
		Pipeline        struct {
			BlocksApplied uint64
		} `json:"pipeline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if m.BlocksCommitted == 0 {
		t.Fatalf("no chain metrics: %+v", m)
	}
	if m.Pipeline.BlocksApplied == 0 {
		t.Fatalf("apply counter missing from /chain: %+v", m)
	}
}

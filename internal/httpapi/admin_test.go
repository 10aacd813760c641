package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
)

// startAdminCluster is startAPICluster with the Server handle exposed,
// so tests can drive the admin setters the way bamboo-server does.
func startAdminCluster(t *testing.T) (*cluster.Cluster, *Server, *httptest.Server) {
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
	api := New(c.Node(c.Observer()), 9100, 5*time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})
	return c, api, srv
}

func TestReadyzFlips(t *testing.T) {
	_, api, srv := startAdminCluster(t)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-ready status = %d, want 503", resp.StatusCode)
	}
	api.SetReady()
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ready status = %d, want 200", resp.StatusCode)
	}
	var out map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out["ready"] {
		t.Fatal("ready flag false after SetReady")
	}
}

func TestAdminResultEndpoint(t *testing.T) {
	c, _, srv := startAdminCluster(t)
	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeNoop(0)})
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	resp, err = http.Get(srv.URL + "/admin/result")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var res ReplicaResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ID != uint64(c.Observer()) {
		t.Fatalf("result id = %d, want %d", res.ID, c.Observer())
	}
	if res.Pid != os.Getpid() {
		t.Fatalf("result pid = %d, want %d", res.Pid, os.Getpid())
	}
	if res.CommittedHeight == 0 || res.Chain.BlocksCommitted == 0 {
		t.Fatalf("empty progress in result: %+v", res)
	}
}

func TestAdminConditionsEndpoint(t *testing.T) {
	c, api, srv := startAdminCluster(t)

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/admin/conditions", "application/json",
			bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp
	}

	// Without a condition model attached the endpoint refuses.
	if resp := post(`{"dropRate": 1}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-model status = %d, want 503", resp.StatusCode)
	}

	// A total drop rate lands on the model: the switch starts counting
	// condition drops. Clearing it restores delivery.
	api.SetConditions(c.Conditions())
	_, _, before := c.NetworkStats()
	if resp := post(`{"dropRate": 1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("drop spec status = %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, _, dropped := c.NetworkStats(); dropped > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drop spec not applied to the condition model")
		}
	}
	if resp := post(`{"dropRate": 0}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("clearing drop spec status = %d", resp.StatusCode)
	}

	// Malformed and invalid specs are rejected before touching the
	// model. Crashes are not conditions: a crash body is an unknown
	// field.
	if resp := post(`{"dropRate": 2.0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d, want 400", resp.StatusCode)
	}
	for _, body := range []string{`{"noSuchKnob": true}`, `{"crash":[2]}`, `{"restart":[2]}`} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400", body, resp.StatusCode)
		}
	}
	if c.Conditions().IsCrashed(2) {
		t.Fatal("a rejected crash body reached the condition model")
	}
}

// TestShutdownRace hammers the submit and status paths while the node
// stops underneath the HTTP server — the window a fleet teardown
// always crosses (SIGTERM drains HTTP while the event loop winds
// down). Run under -race; the assertion is the detector staying quiet
// and every request completing one way or the other.
func TestShutdownRace(t *testing.T) {
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
	api := New(c.Node(c.Observer()), 9101, 300*time.Millisecond)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(fn func()) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fn()
		}
	}
	get := func(path string) func() {
		return func() {
			resp, err := http.Get(srv.URL + path)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(5)
		go hammer(func() {
			body, _ := json.Marshal(txRequest{Command: kvstore.EncodeNoop(0)})
			resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		})
		// Every read surface that walks tracker/trace state must
		// survive the node stopping underneath it.
		go hammer(get("/status"))
		go hammer(get("/metrics"))
		go hammer(get("/debug/trace"))
		go hammer(get("/debug/trace?format=chrome"))
	}
	// Let the load reach steady state, then stop the node underneath
	// the still-serving HTTP front end.
	time.Sleep(100 * time.Millisecond)
	c.Stop()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

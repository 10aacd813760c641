package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
)

// expositionLine matches the Prometheus text format's sample lines:
// name{optional labels} value.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestMetricsExposition drives a cluster to commit, scrapes /metrics,
// and checks the exposition parses line by line and carries the series
// the telemetry plane promises (the same checks CI's fleet-smoke runs
// against a live bamboo-server process).
func TestMetricsExposition(t *testing.T) {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 10
	c, err := cluster.New(cfg, cluster.Options{WithStores: true})
	if err != nil {
		t.Fatal(err)
	}
	api := New(c.Node(c.Observer()), 9001, 2*time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})

	// One committed transaction guarantees non-zero chain counters.
	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeNoop(1)})
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line %d does not parse as an exposition sample: %q", lines, line)
		}
	}
	if lines == 0 {
		t.Fatal("empty exposition")
	}

	for _, series := range []string{
		"bamboo_committed_blocks_total ",
		"bamboo_committed_txs_total ",
		"bamboo_chain_gini ",
		`bamboo_proposer_commits_total{proposer="1"} `,
		`bamboo_stage_seconds_bucket{stage="commit",le="+Inf"} `,
		`bamboo_stage_seconds_count{stage="verify"} `,
		"bamboo_pool_admitted_total ",
		"bamboo_wal_syncs_total ",
		"bamboo_pacemaker_timeouts_fired_total ",
		"bamboo_apply_lag_seconds_count ",
	} {
		if !strings.Contains(string(text), "\n"+series) && !strings.HasPrefix(string(text), series) {
			t.Fatalf("exposition missing series %q", series)
		}
	}

	// The committed block must have produced non-zero chain counters.
	if !regexp.MustCompile(`(?m)^bamboo_committed_blocks_total [1-9]`).Match(text) {
		t.Fatalf("bamboo_committed_blocks_total still zero:\n%s", text[:200])
	}
}

// TestMetricsJSONGone pins the migration contract: asking /metrics for
// JSON is answered 410 with a pointer at /chain.
func TestMetricsJSONGone(t *testing.T) {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	c, err := cluster.New(cfg, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	api := New(c.Node(c.Observer()), 9002, time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("JSON Accept on /metrics = %d, want 410", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "/chain") {
		t.Fatalf("410 body must point at /chain: %q", msg)
	}
}

// TestDebugTrace checks both trace export formats over HTTP.
func TestDebugTrace(t *testing.T) {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 10
	c, err := cluster.New(cfg, cluster.Options{WithStores: true})
	if err != nil {
		t.Fatal(err)
	}
	api := New(c.Node(c.Observer()), 9003, 2*time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})

	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeNoop(2)})
	resp, err := http.Post(srv.URL+"/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var ex struct {
		Node  int `json:"node"`
		Spans []struct {
			Block     string `json:"block"`
			Committed int64  `json:"committed"`
		} `json:"spans"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ex.Spans) == 0 || len(ex.Events) == 0 {
		t.Fatalf("trace export empty: %d spans, %d events", len(ex.Spans), len(ex.Events))
	}
	committed := false
	for _, sp := range ex.Spans {
		if sp.Committed != 0 {
			committed = true
		}
	}
	if !committed {
		t.Fatal("no committed span in the trace export")
	}

	// Chrome format: a JSON array whose entries chrome://tracing
	// accepts — every event needs name/ph/pid, and complete events a
	// ts.
	resp, err = http.Get(srv.URL + "/debug/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty chrome trace")
	}
	sawSlice := false
	for _, ev := range events {
		if ev["name"] == nil || ev["ph"] == nil {
			t.Fatalf("chrome event missing name/ph: %v", ev)
		}
		if ev["ph"] == "X" {
			sawSlice = true
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event without ts: %v", ev)
			}
		}
	}
	if !sawSlice {
		t.Fatal("chrome trace has no stage slices")
	}
}

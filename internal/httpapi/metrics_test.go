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

// expositionFamilies is every family GET /metrics serves: its type and
// its label names, "le" aside.
var expositionFamilies = map[string]struct{ typ, labels string }{
	"bamboo_committed_blocks_total":         {"counter", ""},
	"bamboo_added_blocks_total":             {"counter", ""},
	"bamboo_views_total":                    {"counter", ""},
	"bamboo_committed_txs_total":            {"counter", ""},
	"bamboo_chain_cgr":                      {"gauge", ""},
	"bamboo_chain_bi":                       {"gauge", ""},
	"bamboo_chain_gini":                     {"gauge", ""},
	"bamboo_proposer_commits_total":         {"counter", "proposer"},
	"bamboo_stage_seconds":                  {"histogram", "stage"},
	"bamboo_current_view":                   {"gauge", ""},
	"bamboo_committed_height":               {"gauge", ""},
	"bamboo_snapshot_height":                {"gauge", ""},
	"bamboo_syncing":                        {"gauge", ""},
	"bamboo_pool_size":                      {"gauge", ""},
	"bamboo_pool_admitted_total":            {"counter", ""},
	"bamboo_pool_rejected_total":            {"counter", ""},
	"bamboo_blocks_applied_total":           {"counter", ""},
	"bamboo_sync_requests_sent_total":       {"counter", ""},
	"bamboo_sync_batches_served_total":      {"counter", ""},
	"bamboo_sync_blocks_applied_total":      {"counter", ""},
	"bamboo_sync_rejected_total":            {"counter", ""},
	"bamboo_snapshot_installs_total":        {"counter", ""},
	"bamboo_snapshots_served_total":         {"counter", ""},
	"bamboo_replayed_blocks_total":          {"counter", ""},
	"bamboo_wal_syncs_total":                {"counter", ""},
	"bamboo_apply_lag_seconds":              {"histogram", ""},
	"bamboo_wal_sync_seconds":               {"histogram", ""},
	"bamboo_pacemaker_timeouts_fired_total": {"counter", ""},
	"bamboo_safety_violations_total":        {"counter", ""},
	"bamboo_pending_vote_sets":              {"gauge", ""},
	"bamboo_pending_timeout_sets":           {"gauge", ""},
}

// TestExpositionFamilies scrapes a cluster that has committed blocks
// and pins the whole family set: each family once, with its type and
// label names, and no family beyond the list.
func TestExpositionFamilies(t *testing.T) {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 10
	c, err := cluster.New(cfg, cluster.Options{WithStores: true})
	if err != nil {
		t.Fatal(err)
	}
	api := New(c.Node(c.Observer()), 9002, 2*time.Second)
	srv := httptest.NewServer(api.Handler())
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})
	body, _ := json.Marshal(txRequest{Command: kvstore.EncodeNoop(3)})
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
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	types := map[string]string{}
	labels := map[string]map[string]bool{}
	label := regexp.MustCompile(`([a-zA-Z_]+)="`)
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(f, " ")
			if _, dup := types[name]; dup {
				t.Fatalf("family %s declared twice", name)
			}
			types[name], labels[name] = typ, map[string]bool{}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, set, _ := strings.Cut(name, "{")
		if _, ok := types[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
					name = base
				}
			}
		}
		if _, ok := types[name]; !ok {
			t.Fatalf("sample %q outside any declared family", line)
		}
		for _, m := range label.FindAllStringSubmatch(set, -1) {
			if m[1] != "le" {
				labels[name][m[1]] = true
			}
		}
	}
	for name, want := range expositionFamilies {
		typ, ok := types[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		var got []string
		for l := range labels[name] {
			got = append(got, l)
		}
		if typ != want.typ || strings.Join(got, ",") != want.labels {
			t.Errorf("family %s: type %s labels %q, want %s %q", name, typ, got, want.typ, want.labels)
		}
	}
	if len(types) != len(expositionFamilies) {
		t.Errorf("exposition has %d families, want %d", len(types), len(expositionFamilies))
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

package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// TestClientPopulations runs a closed-loop point driven by a mixed
// client fleet (noop readers alongside kv writers) and checks the
// per-client accounting: fleet size, fairness bracket, and the full
// percentile ladder.
func TestClientPopulations(t *testing.T) {
	res, err := Run(Experiment{
		Config: testConfig(config.ProtocolHotStuff),
		Measure: MeasurePlan{
			Warmup: 200 * time.Millisecond,
			Window: 500 * time.Millisecond,
			Clients: []ClientSpec{
				{Count: 3},
				{Count: 1, Workload: &workload.Spec{
					Kind: workload.KindKV, Keys: 64, WriteRatio: 0.5}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Clients != 4 {
		t.Fatalf("clients = %d, want 4", p.Clients)
	}
	if p.Offered != 4 {
		t.Fatalf("offered = %v, want 4 (one in-flight request per client)", p.Offered)
	}
	if p.Throughput <= 0 {
		t.Fatal("no throughput from the client fleet")
	}
	if p.ClientMinTps <= 0 || p.ClientMaxTps < p.ClientMinTps {
		t.Fatalf("fairness bracket broken: min %v max %v", p.ClientMinTps, p.ClientMaxTps)
	}
	if p.ClientDispersion < 1 {
		t.Fatalf("dispersion = %v, want >= 1", p.ClientDispersion)
	}
	if p.P50 > p.P95 || p.P95 > p.P99 || p.P99 > p.P999 {
		t.Fatalf("percentiles not monotone: %v %v %v %v", p.P50, p.P95, p.P99, p.P999)
	}
}

// TestOpenLoopAdmissionControl overloads a deliberately tiny mempool
// behind a bandwidth-throttled transport, so drain capacity sits far
// below the offered rate: admission control must engage server-side
// (pool rejections) and the typed rejection must reach the clients'
// counters.
func TestOpenLoopAdmissionControl(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	cfg.MemSize = 50
	cfg.Bandwidth = 200e3 // ~a few hundred committed tx/s of drain
	res, err := Run(Experiment{
		Config: cfg,
		Measure: MeasurePlan{
			Warmup: 200 * time.Millisecond,
			Window: 600 * time.Millisecond,
			Rate:   5000,
			Clients: []ClientSpec{
				{Count: 2},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.PoolRejections == 0 {
		t.Fatalf("pool never rejected despite 5k tx/s into a throttled 50-slot pool: %+v", p)
	}
	if p.Rejected == 0 {
		t.Fatalf("clients saw no rejections despite %d pool rejections", p.PoolRejections)
	}
	if res.Violations != 0 || !res.Consistent {
		t.Fatalf("overload broke safety: violations=%d consistent=%v", res.Violations, res.Consistent)
	}
}

// TestClientsValidation covers the Clients section's input checks.
func TestClientsValidation(t *testing.T) {
	base := func() Experiment {
		return Experiment{Config: testConfig(config.ProtocolHotStuff)}
	}
	cases := []struct {
		name string
		mut  func(*Experiment)
	}{
		{"clients with concurrency", func(e *Experiment) {
			e.Measure.Clients = []ClientSpec{{Count: 2}}
			e.Measure.Concurrency = 8
		}},
		{"clients with levels", func(e *Experiment) {
			e.Measure.Clients = []ClientSpec{{Count: 2}}
			e.Measure.Levels = []int{2, 4}
		}},
		{"negative count", func(e *Experiment) {
			e.Measure.Clients = []ClientSpec{{Count: -1}}
		}},
		{"bad population workload", func(e *Experiment) {
			e.Measure.Clients = []ClientSpec{{Count: 1, Workload: &workload.Spec{Kind: "mystery"}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp := base()
			tc.mut(&exp)
			if err := exp.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// TestPopulationStreamDeterminism pins the per-client seeding rule the
// harness uses (Config.Seed plus the client's fleet index): the same
// declaration replays byte-identical workload streams, and distinct
// clients of one population draw distinct streams.
func TestPopulationStreamDeterminism(t *testing.T) {
	spec := workload.Spec{Kind: workload.KindKV, Keys: 256, WriteRatio: 0.3, ZipfS: 1.1}
	const seed, clients, draws = 42, 3, 64
	streams := func() [][]byte {
		out := make([][]byte, clients)
		for idx := 0; idx < clients; idx++ {
			gen, err := spec.New(0, int64(seed+idx))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for i := 0; i < draws; i++ {
				buf.Write(gen.Next())
			}
			out[idx] = buf.Bytes()
		}
		return out
	}
	first, second := streams(), streams()
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("client %d stream not reproducible across runs", i)
		}
	}
	if bytes.Equal(first[0], first[1]) {
		t.Fatal("distinct clients drew identical workload streams")
	}
}

// TestScenarioErrorsNameField: a malformed scenario file must be
// rejected with a message that names the offending field or position,
// not a bare decoder error.
func TestScenarioErrorsNameField(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		body string
		want string
	}{
		{"wrong type names field", `{"measure": {"rate": "fast"}}`, `"measure.rate"`},
		{"syntax error carries line", "{\n  \"name\": \"x\",\n  oops\n}", ":3:"},
		{"unknown field named", `{"measure": {"spice": 11}}`, `"spice"`},
		{"unknown section named", `{"telemetry": true}`, `"telemetry"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadExperiment(write(strings.ReplaceAll(tc.name, " ", "-")+".json", tc.body))
			if err == nil {
				t.Fatal("expected load error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

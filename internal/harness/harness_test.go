package harness

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// testConfig is the fast substrate shared by the harness tests.
func testConfig(proto string) config.Config {
	cfg := config.Default()
	cfg.Protocol = proto
	cfg.ApplyProtocolDefaults()
	cfg.BlockSize = 20
	cfg.MemSize = 10000
	cfg.Timeout = 150 * time.Millisecond
	cfg.MaxNetworkDelay = 10 * time.Millisecond
	cfg.CryptoScheme = "hmac"
	return cfg
}

// TestRunClosedLoop is the harness happy path: one closed-loop point
// with throughput, latency, and window network counters.
func TestRunClosedLoop(t *testing.T) {
	res, err := Run(Experiment{
		Name:   "smoke",
		Config: testConfig(config.ProtocolHotStuff),
		Measure: MeasurePlan{
			Warmup:      200 * time.Millisecond,
			Window:      500 * time.Millisecond,
			Concurrency: 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	p := res.Points[0]
	if p.Throughput <= 0 || p.Mean <= 0 {
		t.Fatalf("empty point: %+v", p)
	}
	if p.NetMsgs == 0 || p.Blocks == 0 {
		t.Fatalf("missing window counters: %+v", p)
	}
	if !res.Consistent || res.Violations != 0 {
		t.Fatalf("bad verdict: consistent=%v violations=%d", res.Consistent, res.Violations)
	}
	if res.Network.Msgs < p.NetMsgs {
		t.Fatalf("run total %d below window %d", res.Network.Msgs, p.NetMsgs)
	}
}

// TestRunLadder runs a levels ladder and checks one point per level.
func TestRunLadder(t *testing.T) {
	res, err := Run(Experiment{
		Config: testConfig(config.ProtocolHotStuff),
		Measure: MeasurePlan{
			Warmup: 150 * time.Millisecond,
			Window: 300 * time.Millisecond,
			Levels: []int{2, 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	if res.Points[0].Offered != 2 || res.Points[1].Offered != 8 {
		t.Fatalf("offered loads %v, %v", res.Points[0].Offered, res.Points[1].Offered)
	}
}

// TestPartitionHealLiveness is the acceptance scenario: a declared
// partition splits the cluster into two quorum-less halves (total
// stall, so no replica drifts past the forest keep window), a
// declared heal restores connectivity and liveness; the run must end
// consistent and the result must survive a JSON round trip.
func TestPartitionHealLiveness(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	exp := Experiment{
		Name:   "partition-heal",
		Config: cfg,
		Workload: workload.Spec{
			Kind: workload.KindKV, Keys: 256, WriteRatio: 0.5,
		},
		Faults: FaultSchedule{
			PartitionAt(400*time.Millisecond, map[types.NodeID]int{3: 1, 4: 1}),
			HealAt(1100 * time.Millisecond),
		},
		Measure: MeasurePlan{
			Warmup:      100 * time.Millisecond,
			Window:      2500 * time.Millisecond,
			Concurrency: 8,
			// Short per-op timeout so workers stuck during the stall
			// resubmit well before the window ends.
			PerOpTimeout: 400 * time.Millisecond,
			Bucket:       250 * time.Millisecond,
		},
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || res.Violations != 0 {
		t.Fatalf("partition-heal run inconsistent: %+v", res)
	}
	if res.Points[0].Throughput <= 0 {
		t.Fatal("no committed throughput across the timeline")
	}
	if len(res.Series) < 8 {
		t.Fatalf("series too short: %d buckets", len(res.Series))
	}
	// The 2/2 split leaves no quorum anywhere: the bucket fully
	// inside the partition window (750–1000ms) must be empty.
	if res.Series[3] != 0 {
		t.Fatalf("commits during quorum-less partition: series %v", res.Series)
	}
	// Liveness must return after the heal: the tail of the series
	// (well past the heal at 1.1s of the timeline) carries commits.
	var tail float64
	for _, v := range res.Series[len(res.Series)-3:] {
		tail += v
	}
	if tail == 0 {
		t.Fatalf("no commits after heal: series %v", res.Series)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Fatalf("result did not round-trip through JSON:\n got %+v\nwant %+v", back, *res)
	}
}

// TestCrashRestartRoundTrip crashes a follower mid-run and restarts
// it; the cluster must stay live throughout and end consistent. The
// crashed node is NOT the observer (the highest-ID replica the
// harness measures at), so the throughput assertion covers the whole
// timeline, not just the pre-crash slice.
func TestCrashRestartRoundTrip(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	cfg.N = 5
	res, err := Run(Experiment{
		Config: cfg,
		Faults: FaultSchedule{
			CrashAt(300*time.Millisecond, 2),
			RestartAt(900*time.Millisecond, 2),
		},
		Measure: MeasurePlan{
			Warmup:       100 * time.Millisecond,
			Window:       2 * time.Second,
			Concurrency:  8,
			PerOpTimeout: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("crash/restart run inconsistent")
	}
	if res.Points[0].Throughput <= 0 {
		t.Fatal("no throughput through crash/restart timeline")
	}
}

// TestOpenLoopRate drives the harness's open-loop path.
func TestOpenLoopRate(t *testing.T) {
	res, err := Run(Experiment{
		Config: testConfig(config.ProtocolHotStuff),
		Measure: MeasurePlan{
			Warmup: 300 * time.Millisecond,
			Window: time.Second,
			Rate:   2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Offered != 2000 {
		t.Fatalf("offered = %v, want 2000", p.Offered)
	}
	if p.Throughput <= 0 {
		t.Fatal("no open-loop throughput")
	}
	// The tight offered-vs-committed band only holds at native speed;
	// the race detector's slowdown can push a slow host below it.
	if !raceEnabled && (p.Throughput < 0.6*2000 || p.Throughput > 1.4*2000) {
		t.Fatalf("open-loop throughput %.0f far from offered 2000", p.Throughput)
	}
}

// TestValidateRejects covers the declarative surface's input checks.
func TestValidateRejects(t *testing.T) {
	base := func() Experiment {
		return Experiment{Config: testConfig(config.ProtocolHotStuff)}
	}
	cases := []struct {
		name string
		mut  func(*Experiment)
	}{
		{"unknown workload kind", func(e *Experiment) { e.Workload.Kind = "mystery" }},
		{"bad write ratio", func(e *Experiment) { e.Workload = workload.Spec{Kind: workload.KindKV, WriteRatio: 2} }},
		{"fault event declaring nothing", func(e *Experiment) { e.Faults = FaultSchedule{{At: time.Second}} }},
		{"negative fault offset", func(e *Experiment) { e.Faults = FaultSchedule{HealAt(-time.Second)} }},
		{"fluctuate without duration", func(e *Experiment) { e.Faults = FaultSchedule{FluctuateAt(0, 0, 0, 0)} }},
		{"fluctuate min above max", func(e *Experiment) {
			e.Faults = FaultSchedule{FluctuateAt(time.Second, time.Second, 100*time.Millisecond, 10*time.Millisecond)}
		}},
		{"crash without replicas", func(e *Experiment) { e.Faults = FaultSchedule{CrashAt(time.Second)} }},
		{"crash out of range", func(e *Experiment) { e.Faults = FaultSchedule{CrashAt(time.Second, 99)} }},
		{"delay without replicas", func(e *Experiment) { e.Faults = FaultSchedule{SetDelayAt(time.Second, time.Millisecond, 0)} }},
		{"partition without groups", func(e *Experiment) { e.Faults = FaultSchedule{PartitionAt(time.Second, nil)} }},
		{"partition with empty groups", func(e *Experiment) {
			e.Faults = FaultSchedule{PartitionAt(time.Second, map[types.NodeID]int{})}
		}},
		{"delay out of range", func(e *Experiment) { e.Faults = FaultSchedule{SetDelayAt(time.Second, time.Millisecond, 0, 5)} }},
		{"partition out of range", func(e *Experiment) {
			e.Faults = FaultSchedule{PartitionAt(time.Second, map[types.NodeID]int{9: 1})}
		}},
		{"drop rate out of range", func(e *Experiment) { e.Faults = FaultSchedule{SetDropRateAt(0, 1.5)} }},
		{"unknown election", func(e *Experiment) { e.Election = "sortition" }},
		{"non-positive level", func(e *Experiment) { e.Measure.Levels = []int{4, 0} }},
		{"non-positive rate", func(e *Experiment) { e.Measure.Rates = []float64{100, -5} }},
		// In-process-only load shaping is refused on the fleet when the
		// scenario loads, not once its processes are already running.
		{"fanout on fleet", func(e *Experiment) { e.Backend, e.Measure.Fanout = BackendFleet, true }},
		{"hashed election on fleet", func(e *Experiment) { e.Backend, e.Election = BackendFleet, ElectionHashed }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp := base()
			tc.mut(&exp)
			if err := exp.Validate(); err == nil {
				t.Fatal("Validate accepted the experiment")
			}
			if _, err := Run(exp); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

package harness

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// backendExperiment is the acceptance scenario of the non-switch
// harness backends: one declared experiment whose schedule exercises
// partition, heal, crash, and restart — it must run to a consistent,
// recovered Result on every registered backend.
func backendExperiment(backend string) Experiment {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 50
	cfg.MemSize = 1 << 14
	cfg.Timeout = 100 * time.Millisecond
	return Experiment{
		Name:    "backend-parity",
		Backend: backend,
		Config:  cfg,
		Faults: FaultSchedule{
			// A minority partition (3 of 4 keep quorum), then a crash
			// of a different replica after the heal.
			PartitionAt(250*time.Millisecond, map[types.NodeID]int{1: 1}),
			HealAt(650 * time.Millisecond),
			CrashAt(900*time.Millisecond, 2),
			RestartAt(1250*time.Millisecond, 2),
		},
		Measure: MeasurePlan{
			Warmup:       150 * time.Millisecond,
			Window:       1800 * time.Millisecond,
			Concurrency:  6,
			PerOpTimeout: 400 * time.Millisecond,
			Bucket:       250 * time.Millisecond,
		},
	}
}

// TestSameScenarioAllBackends is the acceptance bar of the deployment
// backends: identical fault semantics and measurement across the
// in-process switch, loopback TCP, and the multi-process fleet, proven
// by the same declared Experiment (partition/heal plus crash/restart)
// finishing Consistent and Recovered on each.
func TestSameScenarioAllBackends(t *testing.T) {
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			if backend == BackendFleet {
				buildServerBinary(t)
			}
			res, err := Run(backendExperiment(backend))
			if err != nil {
				t.Fatalf("run: %v (result error %q)", err, res.Error)
			}
			if res.Backend != backend {
				t.Fatalf("result backend %q, want %q", res.Backend, backend)
			}
			if !res.Consistent || res.Violations != 0 {
				t.Fatalf("consistency lost: consistent=%v violations=%d", res.Consistent, res.Violations)
			}
			if !res.Recovered {
				t.Fatalf("replicas did not reconverge: heights %v", res.Heights)
			}
			if len(res.Points) != 1 || res.Points[0].Throughput <= 0 {
				t.Fatalf("no committed throughput measured: %+v", res.Points)
			}
			if len(res.Series) == 0 {
				t.Fatal("no committed-rate series sampled")
			}
			switch backend {
			case BackendTCP:
				if res.Network.Dials == 0 {
					t.Fatalf("TCP run reports no dials: %+v", res.Network)
				}
				if res.Network.Redials == 0 {
					t.Fatalf("crash teardown must force redials: %+v", res.Network)
				}
			case BackendFleet:
				if len(res.Pids) != res.Config.N {
					t.Fatalf("fleet result pids = %v, want %d entries", res.Pids, res.Config.N)
				}
				seen := map[int]bool{}
				for i, pid := range res.Pids {
					if pid <= 0 || pid == os.Getpid() || seen[pid] {
						t.Fatalf("replica %d pid %d is not a distinct child process (%v)",
							i+1, pid, res.Pids)
					}
					seen[pid] = true
				}
				// The restart leg re-exec'd replica 2 against its
				// surviving ledger; its bootstrap replay must show up
				// in the merged counters.
				if res.Pipeline.ReplayedBlocks == 0 {
					t.Fatalf("fleet restart replayed no ledger blocks: %+v", res.Pipeline)
				}
				// Exact-height recovery, anchored just before the
				// SIGKILL: the victim finished at or above its
				// pre-kill committed height (the safety WAL retired
				// the replay holdback), and the bootstrap replay
				// covered at least the pre-kill ledger.
				if len(res.PreKillHeights) != res.Config.N || res.PreKillHeights[1] == 0 {
					t.Fatalf("no pre-kill anchor recorded for the victim: %v", res.PreKillHeights)
				}
				if res.Heights[1] < res.PreKillHeights[1] {
					t.Fatalf("victim finished at height %d, below its pre-kill committed height %d",
						res.Heights[1], res.PreKillHeights[1])
				}
				if res.Pipeline.ReplayedBlocks < res.PreKillLedgerHeights[1] {
					t.Fatalf("replay covered %d blocks, pre-kill ledger held %d",
						res.Pipeline.ReplayedBlocks, res.PreKillLedgerHeights[1])
				}
			}
		})
	}
}

// buildServerBinary compiles bamboo-server into the test's temp dir
// and points fleet.ServerBin at it, keeping the harness tests from
// leaving the fallback build's process-lifetime directory behind.
func buildServerBinary(t *testing.T) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bamboo-server")
	cmd := exec.Command("go", "build", "-o", bin, "../../cmd/bamboo-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building bamboo-server: %v\n%s", err, out)
	}
	t.Setenv("BAMBOO_SERVER", bin)
}

// TestLoadExperimentDefaultsAndValidation: a scenario file states only
// what it changes (config defaults fill the rest), takes its name from
// the file when unnamed, and malformed files fail loudly.
func TestLoadExperimentDefaultsAndValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	exp, err := LoadExperiment(write("nightly.json", `{
		"config": {"n": 5, "protocol": "hotstuff"},
		"faults": [{"at": 1000000, "crash": [2]}],
		"measure": {"window": 1000000000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name != "nightly" {
		t.Fatalf("unnamed scenario should take the file name, got %q", exp.Name)
	}
	if exp.Config.N != 5 || exp.Config.Timeout != config.Default().Timeout {
		t.Fatalf("defaults not applied over the file: %+v", exp.Config)
	}

	cases := map[string]string{
		"unknown-field": `{"config": {"n": 4, "protocol": "hotstuff"}, "windwo": 5}`,
		"bad-backend":   `{"backend": "udp", "config": {"n": 4, "protocol": "hotstuff"}}`,
		"bad-config":    `{"config": {"n": 2, "protocol": "hotstuff"}}`,
		"bad-fault":     `{"config": {"n": 4, "protocol": "hotstuff"}, "faults": [{"at": 1, "crash": []}]}`,
		"trailing":      `{"config": {"n": 4, "protocol": "hotstuff"}} {"again": true}`,
		"not-json":      `scenario?`,
	}
	for name, body := range cases {
		if _, err := LoadExperiment(write(name+".json", body)); err == nil {
			t.Errorf("%s: malformed scenario accepted", name)
		}
	}
	if _, err := LoadExperiment(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCommittedScenarioStaysValid guards the repository's example
// scenario — the input of the tcp-smoke CI gate: if a refactor breaks
// its schema, this fails before CI burns a full run on it.
func TestCommittedScenarioStaysValid(t *testing.T) {
	exp, err := LoadExperiment(filepath.Join("..", "..", "examples", "scenarios", "partition-heal.json"))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name != "partition-heal" {
		t.Fatalf("unexpected scenario name %q", exp.Name)
	}
	// The CI gate's value hangs on the schedule actually exercising
	// partition/heal and crash/restart; keep the file honest.
	legs := faultLegs(exp.Faults)
	for _, want := range []string{"partition", "heal", "crash", "restart"} {
		if !legs[want] {
			t.Fatalf("committed scenario lost its %s event", want)
		}
	}
}

// faultLegs names the condition changes a schedule declares somewhere:
// "partition", "heal", "crash" and "restart".
func faultLegs(s FaultSchedule) map[string]bool {
	legs := map[string]bool{}
	for _, ev := range s {
		legs["partition"] = legs["partition"] || len(ev.Partition) > 0
		legs["heal"] = legs["heal"] || ev.Heal
		legs["crash"] = legs["crash"] || len(ev.Crash) > 0
		legs["restart"] = legs["restart"] || len(ev.Restart) > 0
	}
	return legs
}

// TestCommittedFleetScenarioStaysValid guards the fleet-smoke CI
// gate's input the same way: the scenario must keep declaring the
// fleet backend and the SIGKILL/re-exec leg that makes the gate's
// replayedBlocks assertion meaningful.
func TestCommittedFleetScenarioStaysValid(t *testing.T) {
	exp, err := LoadExperiment(filepath.Join("..", "..", "examples", "scenarios", "fleet-kill-restart.json"))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name != "fleet-kill-restart" {
		t.Fatalf("unexpected scenario name %q", exp.Name)
	}
	if exp.Backend != BackendFleet {
		t.Fatalf("scenario backend %q, want %q", exp.Backend, BackendFleet)
	}
	legs := faultLegs(exp.Faults)
	for _, want := range []string{"crash", "restart"} {
		if !legs[want] {
			t.Fatalf("committed scenario lost its %s event", want)
		}
	}
	if exp.DisableLedger {
		t.Fatal("scenario must keep ledgers on: the restart leg exists to prove cross-process replay")
	}
}

// TestOpenLoopAllBackends is the open-loop counterpart of the parity
// bar: the same declared multi-client open-loop MeasurePlan must run
// on every backend — including the fleet, which historically rejected
// rate-driven plans — and come back with the client fleet accounted
// for and the percentile ladder populated.
func TestOpenLoopAllBackends(t *testing.T) {
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			if backend == BackendFleet {
				buildServerBinary(t)
			}
			cfg := config.Default()
			cfg.Protocol = config.ProtocolHotStuff
			cfg.ApplyProtocolDefaults()
			cfg.CryptoScheme = "hmac"
			cfg.BlockSize = 50
			cfg.MemSize = 1 << 14
			cfg.Timeout = 100 * time.Millisecond
			res, err := Run(Experiment{
				Name:    "openloop-parity",
				Backend: backend,
				Config:  cfg,
				Measure: MeasurePlan{
					Warmup:       300 * time.Millisecond,
					Window:       time.Second,
					Rate:         400,
					Clients:      []ClientSpec{{Count: 3}, {Count: 1}},
					PerOpTimeout: 2 * time.Second,
				},
			})
			if err != nil {
				t.Fatalf("run: %v (result error %q)", err, res.Error)
			}
			if !res.Consistent || res.Violations != 0 || !res.Recovered {
				t.Fatalf("open-loop run unhealthy: consistent=%v violations=%d recovered=%v",
					res.Consistent, res.Violations, res.Recovered)
			}
			p := res.Points[0]
			if p.Throughput <= 0 {
				t.Fatalf("no committed throughput: %+v", p)
			}
			if p.Clients != 4 {
				t.Fatalf("clients = %d, want 4", p.Clients)
			}
			if p.Offered != 400 {
				t.Fatalf("offered = %v, want the declared 400 tx/s", p.Offered)
			}
			if p.P50 <= 0 || p.P50 > p.P99 || p.P99 > p.P999 {
				t.Fatalf("percentile ladder broken: p50=%v p99=%v p999=%v", p.P50, p.P99, p.P999)
			}
		})
	}
}

// TestFleetClosedLoopAboveMaxInFlight: a fleet closed loop with more
// workers than the open loop's in-flight bound keeps every worker
// submitting. A dropped send would stall its worker for the per-op
// timeout and count in Shed; the short timeout brings any such resend
// inside the window.
func TestFleetClosedLoopAboveMaxInFlight(t *testing.T) {
	buildServerBinary(t)
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.CryptoScheme = "hmac"
	cfg.BlockSize = 100
	cfg.MemSize = 1 << 14
	cfg.Timeout = 100 * time.Millisecond
	const workers = httpapi.MaxInFlight + 32
	res, err := Run(Experiment{
		Name:    "fleet-closed-wide",
		Backend: BackendFleet,
		Config:  cfg,
		Measure: MeasurePlan{
			Warmup:       300 * time.Millisecond,
			Window:       time.Second,
			Concurrency:  workers,
			PerOpTimeout: 500 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("run: %v (result error %q)", err, res.Error)
	}
	p := res.Points[0]
	if p.Offered != workers || p.Throughput <= 0 || p.Shed != 0 {
		t.Fatalf("offered %v throughput %.0f shed %d, want %d, > 0, 0",
			p.Offered, p.Throughput, p.Shed, workers)
	}
}

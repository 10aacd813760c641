package harness

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/election"
	"github.com/bamboo-bft/bamboo/internal/trace"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// tracedDeployment reads every replica's trace events just before the
// deployment stops, while the replicas still answer.
type tracedDeployment struct {
	deployment
	t      *testing.T
	n      int
	events map[types.NodeID][]trace.Event
}

func (d *tracedDeployment) stop() error {
	d.events = make(map[types.NodeID][]trace.Event, d.n)
	for i := 1; i <= d.n; i++ {
		id := types.NodeID(i)
		switch dep := d.deployment.(type) {
		case *inProcess:
			d.events[id] = dep.Node(id).Trace().Snapshot().Events
		case *fleetDeployment:
			ex, err := dep.f.Trace(id)
			if err != nil {
				d.t.Errorf("replica %s trace: %v", id, err)
			}
			d.events[id] = ex.Events
		}
	}
	return d.deployment.stop()
}

// TestHashedElectionAllBackends: config.Election is the one election
// switch, and it reaches every replica on every backend — the fleet's
// bamboo-servers read it from their configuration file. On each
// replica, every view-entered event names the leader hashed election
// picks for that view, and the run commits and passes the agreement
// check.
func TestHashedElectionAllBackends(t *testing.T) {
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
			cfg.Election = config.ElectionHashed
			exp := Experiment{
				Name:    "hashed-election",
				Backend: backend,
				Config:  cfg,
				Measure: MeasurePlan{
					Warmup:       200 * time.Millisecond,
					Window:       800 * time.Millisecond,
					Concurrency:  4,
					PerOpTimeout: time.Second,
				},
			}
			if err := exp.Validate(); err != nil {
				t.Fatal(err)
			}
			d, epoch, err := deploy(exp)
			if err != nil {
				t.Fatal(err)
			}
			traced := &tracedDeployment{deployment: d, t: t, n: cfg.N}
			// runStep fails unless the honest replicas agree and no
			// replica reports a safety violation.
			p, err := runStep(exp, traced, epoch, exp.Measure.Concurrency, 0, &Result{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if p.Throughput <= 0 || p.Blocks == 0 {
				t.Fatalf("hashed-election run committed nothing: %+v", p)
			}
			hashed, rr := election.NewHashed(cfg.N, cfg.Seed), election.NewRoundRobin(cfg.N)
			for id, events := range traced.events {
				views, differ := 0, 0
				for _, e := range events {
					if e.Kind != trace.EventViewEntered {
						continue
					}
					views++
					if want := hashed.Leader(e.View); e.Node != want {
						t.Fatalf("replica %s entered view %d under leader %s, hashed election picks %s",
							id, e.View, e.Node, want)
					}
					if e.Node != rr.Leader(e.View) {
						differ++
					}
				}
				// Round robin agrees with hashing on about 1 view in n;
				// a run where it always agrees did not run hashing.
				if views < 10 || differ == 0 {
					t.Fatalf("replica %s traced %d view entries, %d of them off the round-robin order",
						id, views, differ)
				}
			}
		})
	}
}

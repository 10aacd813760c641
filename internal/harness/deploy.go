package harness

import (
	"fmt"
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/election"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// loadClient is one benchmark client as runStep drives and windows
// it: a *client.Client on every backend, over an in-process endpoint or
// the fleet's HTTP transport (step_test.go substitutes a fake).
type loadClient interface {
	SetWorkload(workload.Generator)
	RunClosedLoop(concurrency int, perOpTimeout time.Duration)
	RunOpenLoop(rate float64)
	Stop()
	Latency() *metrics.Latency
	Committed() uint64
	Rejected() uint64
	Retries() uint64
	// Shed counts arrivals that never reached a replica.
	Shed() uint64
}

// deployment is what runStep drives one load level over: an in-process
// cluster (switch or TCP) or a fleet of bamboo-server processes. It is
// itself the fault schedule's target, and supplies only what differs
// between backends.
type deployment interface {
	FaultTarget
	// newClient adds one benchmark client.
	newClient() (loadClient, error)
	// replica reads one replica's result slice; an error means the
	// replica is unreachable.
	replica(id types.NodeID) (httpapi.ReplicaResult, error)
	// height reads one replica's committed height, as cheaply as the
	// backend allows; an error means the replica is unreachable.
	height(id types.NodeID) (uint64, error)
	// traffic reads the message counters the window differences, given
	// the observer's record.
	traffic(observer httpapi.ReplicaResult) (msgs, bytes uint64)
	// totals reads the whole run's message counters, given every
	// replica's final record (zero when unreachable).
	totals(final []httpapi.ReplicaResult) NetworkStats
	// hashAt reports a replica's committed block hash at a height.
	hashAt(id types.NodeID, height uint64) (string, bool)
	// finish records the backend's own outputs into the result.
	finish(res *Result)
	// stop tears the deployment down.
	stop() error
}

// deploy stands up a fresh deployment of the experiment's backend and
// returns it with the epoch its fault offsets count from.
func deploy(exp Experiment) (deployment, time.Time, error) {
	if exp.Backend == BackendFleet {
		return deployFleet(exp)
	}
	return deployInProcess(exp)
}

// inProcess is the switch and TCP deployment: a started cluster, which
// is also the fault target (condition marks, plus socket teardown for
// crashes over TCP).
type inProcess struct {
	*cluster.Cluster
	fanout bool
}

func deployInProcess(exp Experiment) (deployment, time.Time, error) {
	cfg := exp.Config
	opts := cluster.Options{
		Backend:       exp.Backend,
		WithStores:    needStores(exp),
		LedgerDir:     exp.LedgerDir,
		DisableLedger: exp.DisableLedger,
	}
	if exp.Election == ElectionHashed {
		opts.Elector = election.NewHashed(cfg.N, cfg.Seed)
	}
	d := &inProcess{fanout: exp.Measure.Fanout}
	// The epoch is taken just before assembly (microseconds
	// in-process): the fault offsets and the committed-rate buckets
	// both count from it.
	epoch := time.Now()
	c, err := cluster.New(cfg, opts)
	if err != nil {
		return nil, epoch, err
	}
	c.Start()
	d.Cluster = c
	return d, epoch, nil
}

func (d *inProcess) newClient() (loadClient, error) {
	cl, err := d.NewClient()
	if err != nil {
		return nil, err
	}
	cl.SetFanout(d.fanout)
	return cl, nil
}

func (d *inProcess) replica(id types.NodeID) (httpapi.ReplicaResult, error) {
	return httpapi.ResultOf(d.Node(id)), nil
}

func (d *inProcess) height(id types.NodeID) (uint64, error) {
	return d.Node(id).Status().CommittedHeight, nil
}

// traffic is deployment-wide in-process: switch-wide on the switch,
// summed over every endpoint on TCP.
func (d *inProcess) traffic(httpapi.ReplicaResult) (msgs, bytes uint64) {
	msgs, bytes, _ = d.NetworkStats()
	return msgs, bytes
}

func (d *inProcess) totals([]httpapi.ReplicaResult) NetworkStats {
	ts := d.TransportStats()
	ts.Msgs, ts.Bytes, ts.Dropped = d.NetworkStats()
	return ts
}

func (d *inProcess) hashAt(id types.NodeID, height uint64) (string, bool) {
	h, ok := d.Node(id).HashAt(height)
	return fmt.Sprintf("%x", h[:]), ok
}

// finish has nothing to add in-process.
func (d *inProcess) finish(*Result) {}

func (d *inProcess) stop() error {
	d.Stop()
	return nil
}

package harness

import (
	"fmt"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/election"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// loadClient is one benchmark client as runStep windows it:
// *client.Client in-process, a fleetClient over HTTP on the fleet.
type loadClient interface {
	Latency() *metrics.Latency
	Committed() uint64
	Rejected() uint64
	Retries() uint64
}

// deployment is what runStep drives one load level over: an in-process
// cluster (switch or TCP) or a fleet of bamboo-server processes. It is
// itself the fault schedule's target, and supplies only what differs
// between backends.
type deployment interface {
	FaultTarget
	// attach adds one benchmark client generating commands from gen.
	attach(gen workload.Generator) (loadClient, error)
	// startLoad drives every attached client: an open loop of rate
	// transactions/second each when rate > 0, else workers closed-loop
	// workers each.
	startLoad(rate float64, workers int, perOp time.Duration)
	// stopLoad stops the load and waits for it.
	stopLoad()
	// shed counts open-loop arrivals dropped before reaching a replica.
	shed() uint64
	// replica reads one replica's result slice; an error means the
	// replica is unreachable.
	replica(id types.NodeID) (httpapi.ReplicaResult, error)
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
// crashes over TCP), and its benchmark clients.
type inProcess struct {
	*cluster.Cluster
	fanout  bool
	clients []*client.Client
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

func (d *inProcess) attach(gen workload.Generator) (loadClient, error) {
	cl, err := d.NewClient()
	if err != nil {
		return nil, err
	}
	cl.SetWorkload(gen)
	cl.SetFanout(d.fanout)
	d.clients = append(d.clients, cl)
	return cl, nil
}

func (d *inProcess) startLoad(rate float64, workers int, perOp time.Duration) {
	for _, cl := range d.clients {
		if rate > 0 {
			cl.RunOpenLoop(rate)
		} else {
			cl.RunClosedLoop(workers, perOp)
		}
	}
}

func (d *inProcess) stopLoad() {
	for _, cl := range d.clients {
		cl.Stop()
	}
}

// shed is what the clients' open-loop pacers dropped for falling
// behind; sending itself never blocks in-process.
func (d *inProcess) shed() uint64 {
	var n uint64
	for _, cl := range d.clients {
		n += cl.Shed()
	}
	return n
}

func (d *inProcess) replica(id types.NodeID) (httpapi.ReplicaResult, error) {
	return httpapi.ResultOf(d.Node(id)), nil
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

package harness

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// fakeClient commits step transactions between successive reads of
// Committed, so every window sees exactly step commits.
type fakeClient struct {
	step, committed uint64
	lat             metrics.Latency
	d               *fakeDeployment
}

func (c *fakeClient) SetWorkload(workload.Generator)   {}
func (c *fakeClient) RunClosedLoop(int, time.Duration) {}
func (c *fakeClient) RunOpenLoop(float64)              {}
func (c *fakeClient) Stop()                            { c.d.loadStopped = true }
func (c *fakeClient) Shed() uint64                     { return 0 }
func (c *fakeClient) Latency() *metrics.Latency        { return &c.lat }
func (c *fakeClient) Committed() uint64                { c.committed += c.step; return c.committed }
func (c *fakeClient) Rejected() uint64                 { return 0 }
func (c *fakeClient) Retries() uint64                  { return 0 }

// fakeDeployment is a deployment with no sockets and no processes: its
// replicas report fixed records, its clients fixed commit steps.
type fakeDeployment struct {
	// With perBucket set, the observer's TxCommitted grows by perBucket
	// every bucket since epoch, and its reads fail while the time since
	// epoch is in [failFrom, failTo).
	epoch            time.Time
	bucket           time.Duration
	perBucket        uint64
	failFrom, failTo time.Duration
	failedReads      atomic.Int32

	// With climb set, every replica's committed height grows by climb
	// blocks per second since epoch. Record reads take readDelay each,
	// one at a time; height reads take heightDelay each and overlap,
	// as reads of separate server processes do on the fleet.
	climb       float64
	readDelay   time.Duration
	readMu      sync.Mutex
	heightDelay time.Duration

	recs    []httpapi.ReplicaResult // index is replica ID minus one
	down    map[types.NodeID]bool   // unreachable replicas
	forked  map[types.NodeID]bool   // replicas reporting a divergent hash
	steps   []uint64                // commit step of each attached client
	clients int

	crashFor    time.Duration // how long Crash blocks
	crashed     atomic.Bool   // set by the fault goroutine
	loadStopped bool
	// stopped records that stop ran, midCrash that a Crash was still
	// running then, beforeLoad that the load was still running.
	stopped, midCrash, beforeLoad bool
}

func newFake(n int, height uint64) *fakeDeployment {
	d := &fakeDeployment{down: map[types.NodeID]bool{}, forked: map[types.NodeID]bool{}}
	for i := 1; i <= n; i++ {
		d.recs = append(d.recs, httpapi.ReplicaResult{
			ID: uint64(i), CommittedHeight: height,
			Chain: metrics.ChainStats{CGR: 0.5, TxCommitted: 1000, BlocksCommitted: 10},
		})
	}
	return d
}

func (d *fakeDeployment) ApplyConditions(network.ConditionsSpec) {}
func (d *fakeDeployment) Restart(types.NodeID)                   {}
func (d *fakeDeployment) Crash(types.NodeID) {
	time.Sleep(d.crashFor)
	d.crashed.Store(true)
}

func (d *fakeDeployment) newClient() (loadClient, error) {
	var step uint64 = 1
	if d.clients < len(d.steps) {
		step = d.steps[d.clients]
	}
	d.clients++
	return &fakeClient{step: step, d: d}, nil
}

func (d *fakeDeployment) replica(id types.NodeID) (httpapi.ReplicaResult, error) {
	if d.down[id] {
		return httpapi.ReplicaResult{}, errors.New("unreachable")
	}
	if d.readDelay > 0 {
		d.readMu.Lock()
		defer d.readMu.Unlock()
		time.Sleep(d.readDelay)
	}
	rr := d.recs[id-1]
	rr.CommittedHeight = d.heightNow(id)
	if d.perBucket > 0 && int(id) == len(d.recs) {
		since := time.Since(d.epoch)
		if since >= d.failFrom && since < d.failTo {
			d.failedReads.Add(1)
			return httpapi.ReplicaResult{}, errors.New("unreachable")
		}
		rr.Chain.TxCommitted = uint64(float64(d.perBucket) * float64(since) / float64(d.bucket))
	}
	return rr, nil
}

func (d *fakeDeployment) height(id types.NodeID) (uint64, error) {
	if d.down[id] {
		return 0, errors.New("unreachable")
	}
	time.Sleep(d.heightDelay)
	return d.heightNow(id), nil
}

func (d *fakeDeployment) heightNow(id types.NodeID) uint64 {
	return d.recs[id-1].CommittedHeight + uint64(d.climb*time.Since(d.epoch).Seconds())
}

func (d *fakeDeployment) traffic(httpapi.ReplicaResult) (uint64, uint64) { return 0, 0 }
func (d *fakeDeployment) totals([]httpapi.ReplicaResult) NetworkStats    { return NetworkStats{} }

func (d *fakeDeployment) hashAt(id types.NodeID, height uint64) (string, bool) {
	if d.forked[id] {
		return "fork", true
	}
	return fmt.Sprint("block-", height), true
}

func (d *fakeDeployment) finish(*Result) {}

func (d *fakeDeployment) stop() error {
	d.stopped, d.midCrash, d.beforeLoad = true, !d.crashed.Load(), !d.loadStopped
	return nil
}

func fakeExperiment() Experiment {
	cfg := testConfig(config.ProtocolHotStuff)
	return Experiment{Config: cfg, Measure: MeasurePlan{Window: 5 * time.Millisecond}}
}

// TestStepMergeSkipsUnreachableAndByzantine: a replica unreachable at
// collection counts as height 0, fails the recovery verdict, and sits
// out the chain merge and the agreement check; a Byzantine replica sits
// out Chain/Pipeline and the agreement check but its violations count.
func TestStepMergeSkipsUnreachableAndByzantine(t *testing.T) {
	exp := fakeExperiment()
	exp.Config.ByzNo, exp.Config.Strategy = 1, config.StrategyForking
	d := newFake(exp.Config.N, 1000)
	d.recs[0].Chain.CGR, d.recs[0].Pipeline.BlocksApplied, d.recs[0].Violations = 1, 500, 2
	d.recs[2].Pipeline.BlocksApplied, d.recs[3].Pipeline.BlocksApplied = 7, 7
	d.down[2] = true
	d.forked[1], d.forked[2] = true, true
	res := &Result{}
	_, err := runStep(exp, d, time.Now(), 1, 0, res)
	if err == nil || !strings.Contains(err.Error(), "2 safety violations") {
		t.Fatalf("err = %v, want the Byzantine replica's violations", err)
	}
	if res.Violations != 2 {
		t.Fatalf("violations = %d, want 2", res.Violations)
	}
	if res.Heights[1] != 0 || res.Recovered {
		t.Fatalf("unreachable replica: heights %v, recovered %v", res.Heights, res.Recovered)
	}
	if res.Chain.CGR != 0.5 {
		t.Fatalf("chain CGR = %v, want 0.5 averaged over the two reachable honest replicas", res.Chain.CGR)
	}
	if res.Pipeline.BlocksApplied != 14 {
		t.Fatalf("pipeline blocks applied = %d, want 14 from honest replicas only", res.Pipeline.BlocksApplied)
	}
}

// TestStepAgreementCatchesFork is the control for the test above: a
// reachable honest replica with a divergent hash fails the run.
func TestStepAgreementCatchesFork(t *testing.T) {
	d := newFake(4, 1000)
	d.forked[3] = true
	_, err := runStep(fakeExperiment(), d, time.Now(), 1, 0, &Result{})
	if err == nil || !strings.Contains(err.Error(), "disagree at height 1000") {
		t.Fatalf("err = %v, want a disagreement", err)
	}
}

// TestStepIdleClientZeroDispersion: a client that commits nothing in
// the window makes the dispersion 0, not a division by zero.
func TestStepIdleClientZeroDispersion(t *testing.T) {
	exp := fakeExperiment()
	exp.Measure.Clients = []ClientSpec{{Count: 2}}
	d := newFake(exp.Config.N, 1000)
	d.steps = []uint64{50, 0}
	res := &Result{}
	p, err := runStep(exp, d, time.Now(), 0, 0, res)
	if err != nil {
		t.Fatal(err)
	}
	if p.Clients != 2 || p.ClientMinTps != 0 || p.ClientMaxTps <= 0 || p.ClientDispersion != 0 {
		t.Fatalf("clients %d min %v max %v dispersion %v", p.Clients, p.ClientMinTps, p.ClientMaxTps, p.ClientDispersion)
	}
	if !res.Recovered {
		t.Fatalf("equal heights %v must read as recovered", res.Heights)
	}
}

// TestStepRecoveryIgnoresReadTiming: on a chain that climbs two keep
// windows during each record read, with record reads served one at a
// time, every replica is at the same height at every instant, so the
// run must read as recovered.
func TestStepRecoveryIgnoresReadTiming(t *testing.T) {
	exp := fakeExperiment()
	d := newFake(exp.Config.N, 1000)
	d.epoch, d.readDelay = time.Now(), 20*time.Millisecond
	d.climb = float64(2*exp.Config.KeepWindow()) / d.readDelay.Seconds()
	res := &Result{}
	if _, err := runStep(exp, d, d.epoch, 1, 0, res); err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatalf("heights %v read as not recovered", res.Heights)
	}
}

// TestStepRecoveryIgnoresSlowHeightReads: on a chain that climbs a
// keep window during each height read, with every read slow (an HTTP
// round trip to a busy server on the fleet), heights read one replica
// after another would spread over several keep windows; read all at
// once, the run reads as recovered.
func TestStepRecoveryIgnoresSlowHeightReads(t *testing.T) {
	exp := fakeExperiment()
	d := newFake(exp.Config.N, 1000)
	d.epoch, d.heightDelay = time.Now(), 100*time.Millisecond
	d.climb = float64(exp.Config.KeepWindow()) / d.heightDelay.Seconds()
	res := &Result{}
	if _, err := runStep(exp, d, d.epoch, 1, 0, res); err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatalf("heights %v read as not recovered", res.Heights)
	}
}

// TestStepJoinsFaultsBeforeStop: a Crash still running when the window
// ends finishes before the load and the deployment stop.
func TestStepJoinsFaultsBeforeStop(t *testing.T) {
	exp := fakeExperiment()
	exp.Faults = FaultSchedule{CrashAt(0, 1)}
	d := newFake(exp.Config.N, 1000)
	d.crashFor = 100 * time.Millisecond
	if _, err := runStep(exp, d, time.Now(), 1, 0, &Result{}); err != nil {
		t.Fatal(err)
	}
	if !d.stopped || d.midCrash {
		t.Fatal("deployment stopped while a Crash was still running")
	}
	if d.beforeLoad {
		t.Fatal("deployment stopped before its load")
	}
}

// TestStepSeriesSampled: with the observer committing at a fixed rate,
// the series holds exactly the buckets that ended inside the window,
// each at that rate, and a boundary read that fails neither fails the
// run nor drops its buckets.
func TestStepSeriesSampled(t *testing.T) {
	const bucket, step = 100 * time.Millisecond, 40
	exp := fakeExperiment()
	exp.Measure.Window, exp.Measure.Bucket = 6*bucket, bucket
	d := newFake(exp.Config.N, 1000)
	// Half a bucket before the window opens, so the window's end falls
	// mid-bucket: six boundaries inside it, the seventh after.
	epoch := time.Now().Add(-bucket / 2)
	d.epoch, d.bucket, d.perBucket = epoch, bucket, step
	// The read at the third boundary fails; the window's own reads of
	// the observer, at its start and end, lie outside this span.
	d.failFrom, d.failTo = 5*bucket/2, 7*bucket/2
	res := &Result{}
	if _, err := runStep(exp, d, epoch, 1, 0, res); err != nil {
		t.Fatal(err)
	}
	if d.failedReads.Load() == 0 {
		t.Fatal("no boundary read failed")
	}
	if len(res.Series) != 6 {
		t.Fatalf("series %v: %d buckets, want the 6 complete ones", res.Series, len(res.Series))
	}
	want := float64(step) / bucket.Seconds()
	for i, r := range res.Series {
		if math.Abs(r-want) > 0.1*want {
			t.Fatalf("bucket %d reads %.1f tx/s, want %.1f (series %v)", i, r, want, res.Series)
		}
	}
}

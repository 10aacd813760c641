package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/fleet"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// fleetDeployment is the multi-process deployment: a fleet of real
// bamboo-server processes with the process boundary made real — load
// goes in through each replica's HTTP API, faults cross as SIGKILL /
// re-exec / admin-endpoint pushes, and every record comes from a
// server's /admin/result.
//
// Both load shapes run over HTTP: closed loop keeps one in-flight
// POST /tx per worker, open loop paces Poisson arrivals per client and
// carries them through a bounded submitter pool (arrivals past the
// pool's capacity are shed and counted — see Point.Shed). The
// load-shaping extras that require in-process hooks are rejected by
// Experiment.Validate.
//
// The deployment is its own fault target: Crash snapshots the victim's
// committed and on-disk ledger heights over HTTP in the instant before
// the SIGKILL lands. The two heights are the anchors of the exact-height
// recovery verdict — the ledger height is monotone while the process
// lives, so whatever is recorded here lower-bounds what the next
// incarnation's bootstrap replay must re-commit. The schedule runs in a
// single goroutine that runStep joins before finish reads the anchors,
// so they need no locking.
type fleetDeployment struct {
	f       *fleet.Fleet
	cfg     config.Config
	clients []*fleetClient
	load    *fleetLoad
	// preKill and preKillLedger hold the Crash anchors per replica.
	preKill       map[types.NodeID]uint64
	preKillLedger map[types.NodeID]uint64
}

func deployFleet(exp Experiment) (deployment, time.Time, error) {
	f, err := fleet.New(exp.Config, fleet.Options{
		Dir:           exp.LedgerDir,
		DisableLedger: exp.DisableLedger,
	})
	if err != nil {
		return nil, time.Time{}, err
	}
	// The epoch — the zero point of fault offsets — is "every replica
	// ready". The in-process backends anchor just before assembly;
	// assembly there is microseconds, while spawning real processes is
	// not, so anchoring after readiness is what keeps a scenario's
	// offsets meaning the same thing on every backend.
	return &fleetDeployment{f: f, cfg: exp.Config}, time.Now(), nil
}

func (d *fleetDeployment) ApplyConditions(spec network.ConditionsSpec) {
	d.f.ApplyConditions(spec)
}

func (d *fleetDeployment) Restart(id types.NodeID) { d.f.Restart(id) }

func (d *fleetDeployment) Crash(id types.NodeID) {
	if rr, err := d.f.ReplicaResult(id); err == nil {
		if d.preKill == nil {
			d.preKill = make(map[types.NodeID]uint64)
			d.preKillLedger = make(map[types.NodeID]uint64)
		}
		// A replica killed twice keeps its highest anchors: recovery
		// must reach the furthest point any incarnation got to.
		d.preKill[id] = max(d.preKill[id], rr.CommittedHeight)
		d.preKillLedger[id] = max(d.preKillLedger[id], rr.LedgerHeight)
	}
	d.f.Crash(id)
}

func (d *fleetDeployment) attach(gen workload.Generator) (loadClient, error) {
	fc := &fleetClient{gen: gen, lat: &metrics.Latency{}}
	d.clients = append(d.clients, fc)
	return fc, nil
}

func (d *fleetDeployment) startLoad(rate float64, workers int, perOp time.Duration) {
	d.load = startFleetLoad(d.f, d.clients, d.cfg.N, workers, rate, perOp, d.cfg.Seed)
}

func (d *fleetDeployment) stopLoad() {
	if d.load != nil {
		d.load.stop()
	}
}

func (d *fleetDeployment) shed() uint64 { return d.load.shed.Load() }

func (d *fleetDeployment) replica(id types.NodeID) (httpapi.ReplicaResult, error) {
	return d.f.ReplicaResult(id)
}

// traffic is the observer endpoint's own: the fleet has no
// deployment-wide counter to window.
func (d *fleetDeployment) traffic(observer httpapi.ReplicaResult) (msgs, bytes uint64) {
	return observer.Transport.Msgs, observer.Transport.Bytes
}

// totals sums every replica's CURRENT incarnation; traffic of
// pre-restart incarnations died with their processes.
func (d *fleetDeployment) totals(final []httpapi.ReplicaResult) NetworkStats {
	var net NetworkStats
	for _, rr := range final {
		net.Add(rr.Transport)
	}
	return net
}

func (d *fleetDeployment) hashAt(id types.NodeID, height uint64) (string, bool) {
	h, ok, err := d.f.HashAt(id, height)
	return h, ok && err == nil
}

func (d *fleetDeployment) finish(res *Result) {
	n := d.cfg.N
	pids := d.f.Pids()
	res.Pids = make([]int, n)
	for i := 1; i <= n; i++ {
		res.Pids[i-1] = pids[types.NodeID(i)]
	}
	if len(d.preKill) > 0 {
		res.PreKillHeights = make([]uint64, n)
		res.PreKillLedgerHeights = make([]uint64, n)
		for id, h := range d.preKill {
			res.PreKillHeights[id-1] = h
		}
		for id, h := range d.preKillLedger {
			res.PreKillLedgerHeights[id-1] = h
		}
	}
}

func (d *fleetDeployment) stop() error {
	if err := d.f.Stop(); err != nil {
		return fmt.Errorf("harness: fleet teardown: %w", err)
	}
	return nil
}

// Submitter sizing for the open-loop fleet: arrivals are paced by
// per-client generators and carried by a fixed pool of HTTP
// submitters, each holding one in-flight POST /tx (which blocks until
// the commit response). When arrival rate times commit latency exceeds
// the pool, the backlog fills and further arrivals are shed — counted
// in Point.Shed, never silent.
const (
	fleetSubmitters  = 128
	fleetBacklogSize = 1024
)

// fleetClient is one benchmark client of the fleet backend: its own
// workload generator plus the client-side counters the harness windows
// into a Point (latency histogram, commits for fairness, rejections
// and retries for admission control).
type fleetClient struct {
	gen       workload.Generator
	lat       *metrics.Latency
	committed metrics.Counter
	rejected  metrics.Counter
	retries   metrics.Counter
}

func (fc *fleetClient) Latency() *metrics.Latency { return fc.lat }
func (fc *fleetClient) Committed() uint64         { return fc.committed.Load() }
func (fc *fleetClient) Rejected() uint64          { return fc.rejected.Load() }
func (fc *fleetClient) Retries() uint64           { return fc.retries.Load() }

// fleetJob is one paced open-loop arrival awaiting an HTTP submitter.
// The intended timestamp — assigned by the pacer, before any queueing —
// is what latency is measured from, so submitter backlog shows up as
// latency instead of being coordinated-omitted away.
type fleetJob struct {
	cl       *fleetClient
	intended time.Time
	command  []byte
	target   types.NodeID
}

// fleetLoad is the load generator of the fleet backend: the in-process
// client's loops rebuilt over HTTP. Closed loop runs workers that keep
// one request in flight each; open loop runs one workload.Pace pacer per
// client feeding the bounded submitter pool. Submissions to a crashed
// replica fail fast and count for nothing — the same transactions a
// real client would lose.
type fleetLoad struct {
	shed   metrics.Counter
	jobs   chan fleetJob
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// startFleetLoad starts the load against the fleet. rate > 0 selects
// the open loop at rate arrivals/second per client; otherwise each
// client runs workersPer closed-loop workers.
func startFleetLoad(f *fleet.Fleet, clients []*fleetClient,
	n, workersPer int, rate float64, perOp time.Duration, seed int64) *fleetLoad {

	l := &fleetLoad{stopCh: make(chan struct{})}
	httpc := &http.Client{Timeout: perOp}
	if rate > 0 {
		l.jobs = make(chan fleetJob, fleetBacklogSize)
		for i, fc := range clients {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			draw := func(mean float64) int { return workload.Poisson(rng, mean) }
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				// Each arrival is handed to the submitter pool, or shed
				// (counted) when the backlog is full.
				workload.Pace(l.stopCh, rate, draw, func(intended time.Time) {
					job := fleetJob{cl: fc, intended: intended, command: fc.gen.Next(),
						target: types.NodeID(rng.Intn(n) + 1)}
					select {
					case l.jobs <- job:
					default:
						l.shed.Add(1)
					}
				})
			}()
		}
		for s := 0; s < fleetSubmitters; s++ {
			l.wg.Add(1)
			go l.submitLoop(f, httpc)
		}
		return l
	}
	for i, fc := range clients {
		for w := 0; w < workersPer; w++ {
			l.wg.Add(1)
			go l.closedWorker(f, httpc, fc,
				rand.New(rand.NewSource(seed+int64(i*workersPer+w))), n)
		}
	}
	return l
}

// closedWorker keeps one POST /tx in flight, backing off briefly after
// failures and admission rejections (each resubmission after a 429 is
// a counted retry).
func (l *fleetLoad) closedWorker(f *fleet.Fleet, httpc *http.Client,
	fc *fleetClient, rng *rand.Rand, n int) {

	defer l.wg.Done()
	for {
		select {
		case <-l.stopCh:
			return
		default:
		}
		target := types.NodeID(rng.Intn(n) + 1)
		start := time.Now()
		committed, rejected := postTx(f, httpc, target, fc.gen.Next())
		switch {
		case committed:
			fc.lat.Record(time.Since(start))
			fc.committed.Add(1)
		case rejected:
			fc.rejected.Add(1)
			fc.retries.Add(1)
			// Back off a beat so a saturated pool is not hammered.
			time.Sleep(2 * time.Millisecond)
		default:
			// Connection refused (crashed replica) or per-op timeout;
			// back off so a dead target is not a busy loop.
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// submitLoop drains paced arrivals, one in-flight POST /tx at a time.
func (l *fleetLoad) submitLoop(f *fleet.Fleet, httpc *http.Client) {
	defer l.wg.Done()
	for {
		select {
		case <-l.stopCh:
			return
		case job := <-l.jobs:
			committed, rejected := postTx(f, httpc, job.target, job.command)
			switch {
			case committed:
				job.cl.lat.Record(time.Since(job.intended))
				job.cl.committed.Add(1)
			case rejected:
				job.cl.rejected.Add(1)
			}
		}
	}
}

// postTx submits one transaction over HTTP and reports how it ended:
// committed, rejected by admission control (HTTP 429), or neither
// (connection failure or timeout).
func postTx(f *fleet.Fleet, httpc *http.Client, target types.NodeID, command []byte) (committed, rejected bool) {
	body, err := json.Marshal(map[string][]byte{"command": command})
	if err != nil {
		return false, false
	}
	resp, err := httpc.Post(f.URL(target)+"/tx", "application/json",
		bytes.NewReader(body))
	if err != nil {
		return false, false
	}
	var out struct {
		Committed bool `json:"committed"`
		Rejected  bool `json:"rejected"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	_ = resp.Body.Close()
	return out.Committed, out.Rejected || resp.StatusCode == http.StatusTooManyRequests
}

func (l *fleetLoad) stop() {
	close(l.stopCh)
	l.wg.Wait()
}

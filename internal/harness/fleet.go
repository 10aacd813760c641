package harness

import (
	"fmt"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/fleet"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// fleetDeployment is the multi-process deployment: a fleet of real
// bamboo-server processes with the process boundary made real — load
// goes in through each replica's HTTP API, faults cross as SIGKILL /
// re-exec / admin-endpoint pushes, and every record comes from a
// server's /admin/result.
//
// Its benchmark clients are the in-process backends' client.Client over
// an httpapi.Transport, so both load shapes, the retry of a rejected
// transaction and the counters are the same code on every backend. A
// closed loop bounds itself at one POST per worker. The open-loop
// clients share one httpapi.Limit: the deployment as a whole keeps at
// most httpapi.MaxInFlight POSTs outstanding and httpapi.MaxQueued
// waiting, whatever the client count, and the wait counts as latency
// from the intended arrival. A send past that bound, or one that gets
// no answer, is counted in Point.Shed.
// The load-shaping extras that require in-process hooks are rejected by
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
	perOp   time.Duration
	clients int // built so far; numbers the next one
	// limit is the open loop's deployment-wide bound; nil in closed
	// loop.
	limit *httpapi.Limit
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
	d := &fleetDeployment{f: f, cfg: exp.Config, perOp: exp.Measure.perOp()}
	// Open loop is Rates or Rate, unless Levels takes precedence.
	if m := exp.Measure; len(m.Levels) == 0 && (len(m.Rates) > 0 || m.Rate > 0) {
		d.limit = httpapi.NewLimit()
	}
	return d, time.Now(), nil
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

// newClient builds a client.Client over an HTTP transport to every
// replica's POST /tx. Servers mint their own TxIDs, so the client's ID
// only namespaces its own.
func (d *fleetDeployment) newClient() (loadClient, error) {
	urls := make([]string, d.cfg.N)
	for i := range urls {
		urls[i] = d.f.URL(types.NodeID(i + 1))
	}
	d.clients++
	tr := httpapi.NewTransport(types.NodeID(d.clients), urls, d.perOp, d.limit)
	return httpClient{client.New(tr, d.cfg.N, d.cfg.PayloadSize, d.cfg.Seed+int64(d.clients)), tr}, nil
}

// httpClient is a fleet benchmark client: its Shed adds the sends its
// transport dropped to what its pacer shed.
type httpClient struct {
	*client.Client
	tr *httpapi.Transport
}

func (c httpClient) Shed() uint64 { return c.Client.Shed() + c.tr.Dropped() }

func (d *fleetDeployment) replica(id types.NodeID) (httpapi.ReplicaResult, error) {
	return d.f.ReplicaResult(id)
}

func (d *fleetDeployment) height(id types.NodeID) (uint64, error) {
	return d.f.CommittedHeight(id)
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

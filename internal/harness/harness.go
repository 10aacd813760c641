// Package harness is the declarative experiment layer of Bamboo: an
// Experiment combines a run configuration, a pluggable workload, a
// timed fault schedule, and a measurement plan; Run executes it and
// returns a structured, JSON-marshalable Result. A scenario is data,
// not a bespoke main() — the bench runners, the cmd tools, and the
// examples all build on this package.
package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/election"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// Election modes accepted by Experiment.Election.
const (
	ElectionRoundRobin = "round-robin"
	ElectionHashed     = "hashed"
)

// Backend names accepted by Experiment.Backend.
const (
	BackendSwitch = cluster.BackendSwitch
	BackendTCP    = cluster.BackendTCP
	// BackendFleet deploys every replica as its own bamboo-server OS
	// process on loopback (see internal/fleet).
	BackendFleet = "fleet"
)

// Backends returns the registered deployment backends, in
// documentation order. It is the single list experiment validation
// and the command-line tools check and print — a backend added here
// is accepted everywhere at once.
func Backends() []string {
	return []string{BackendSwitch, BackendTCP, BackendFleet}
}

// Experiment declares one complete scenario.
type Experiment struct {
	// Name labels the experiment in results and reports.
	Name string `json:"name,omitempty"`
	// Config is the run configuration (Table I of the paper).
	Config config.Config `json:"config"`
	// Workload declares the transaction generator (default: padded
	// no-op at Config.PayloadSize).
	Workload workload.Spec `json:"workload"`
	// Faults is the timed fault schedule, with offsets measured from
	// the experiment epoch (just before cluster assembly — the same
	// anchor as the committed-rate buckets).
	Faults FaultSchedule `json:"faults,omitempty"`
	// Measure is the measurement plan.
	Measure MeasurePlan `json:"measure"`
	// Election selects leader election: "" or "round-robin" keeps the
	// configuration's default, "hashed" uses hash-based pseudo-random
	// election (the Section V-E design choice).
	Election string `json:"election,omitempty"`
	// Backend selects the deployment the scenario runs over: "" or
	// "switch" for the in-process channel switch, "tcp" for one real
	// loopback listener per replica, "fleet" for one bamboo-server OS
	// process per replica. The fault schedule means the same thing on
	// all of them — partitions, delays, and drops compile into
	// condition-model changes (applied directly in-process, pushed over
	// each server's admin endpoint on the fleet), while crashes
	// escalate with the backend: condition marks on the switch, socket
	// teardown on TCP, SIGKILL and re-exec on the fleet — so the same
	// declared experiment yields comparable Results on any backend.
	Backend string `json:"backend,omitempty"`
	// LedgerDir, when set, gives every replica a persistent ledger
	// file of its committed chain under this directory. When empty,
	// replicas get ledgers in a temporary directory removed at
	// teardown — persistence is what ledger-backed deep catch-up
	// serves from, so it is on by default.
	LedgerDir string `json:"ledgerDir,omitempty"`
	// DisableLedger turns per-replica persistence off, and with it
	// deep catch-up: replicas isolated past the forest keep window
	// then stay behind. Control-experiment knob.
	DisableLedger bool `json:"disableLedger,omitempty"`
}

// ClientSpec declares one population of identically configured
// benchmark clients inside a MeasurePlan — the unit of a mixed
// workload fleet (e.g. 90 key-value readers alongside 10 bank-transfer
// writers).
type ClientSpec struct {
	// Count is the number of clients in this population (0 means 1).
	Count int `json:"count"`
	// Workload overrides the experiment-level workload for this
	// population; nil inherits it. Every client gets its own generator
	// instance, deterministically seeded from Config.Seed plus the
	// client's fleet index, so mixed populations replay exactly.
	Workload *workload.Spec `json:"workload,omitempty"`
}

// MeasurePlan declares how a scenario is loaded and measured. Exactly
// one load shape applies, checked in this order: Levels (closed-loop
// concurrency ladder, a fresh cluster per level), Rates (open-loop
// Poisson rate ladder), Rate (one open-loop run), else one
// closed-loop run at Concurrency.
type MeasurePlan struct {
	// Warmup runs load without measuring before every window.
	Warmup time.Duration `json:"warmup"`
	// Window is the measured interval; 0 uses Config.Runtime.
	Window time.Duration `json:"window"`
	// Concurrency is the closed-loop worker count of a single run;
	// 0 uses Config.Concurrency. Mutually exclusive with Clients.
	Concurrency int `json:"concurrency,omitempty"`
	// Levels is the closed-loop concurrency ladder. Mutually exclusive
	// with Clients.
	Levels []int `json:"levels,omitempty"`
	// Rate is the open-loop arrival rate (transactions/second). With
	// Clients, the rate is split evenly across the whole fleet.
	Rate float64 `json:"rate,omitempty"`
	// Rates is the open-loop rate ladder.
	Rates []float64 `json:"rates,omitempty"`
	// Clients declares the benchmark fleet as workload populations.
	// Empty means one client running the experiment workload. Under
	// closed loop each declared client keeps exactly one request in
	// flight (so total concurrency = total count, and Concurrency or
	// Levels must not also be set); under open loop the arrival rate is
	// split evenly across all clients. Per-client committed throughput
	// feeds the Point fairness fields.
	Clients []ClientSpec `json:"clients,omitempty"`
	// PerOpTimeout bounds each closed-loop wait (default 5s).
	PerOpTimeout time.Duration `json:"perOpTimeout,omitempty"`
	// SaturationStop ends a Levels ladder early once throughput
	// clearly degrades past its best (the paper's "increase
	// concurrency until saturated").
	SaturationStop bool `json:"saturationStop,omitempty"`
	// Bucket, when positive, samples committed transactions into
	// fixed-width time buckets from cluster start (Result.Series) —
	// the responsiveness timeline of Figure 15.
	Bucket time.Duration `json:"bucket,omitempty"`
	// Fanout broadcasts each client transaction to every replica
	// instead of one chosen at random (Section V-E).
	Fanout bool `json:"fanout,omitempty"`
	// WithStores attaches a kvstore execution layer to every replica
	// even for workloads that do not require one.
	WithStores bool `json:"withStores,omitempty"`
}

// Point is one measured datum of a throughput/latency experiment.
type Point struct {
	// Offered is the offered load: concurrency for closed-loop runs,
	// transactions/second for open-loop runs.
	Offered float64 `json:"offered"`
	// Throughput is committed transactions/second observed at the
	// observer replica over the window.
	Throughput float64 `json:"throughput"`
	// Mean and the percentiles are client-side latencies (nanoseconds
	// in JSON), merged across every client's log-bucketed histogram.
	// Open-loop runs stamp latency from the *intended* send time, so
	// the tail percentiles are free of coordinated omission.
	Mean time.Duration `json:"mean"`
	P50  time.Duration `json:"p50"`
	P95  time.Duration `json:"p95"`
	P99  time.Duration `json:"p99"`
	P999 time.Duration `json:"p999"`
	// Clients is the number of benchmark clients driving this point.
	Clients int `json:"clients,omitempty"`
	// ClientMinTps/ClientMaxTps bracket per-client committed throughput
	// over the window, and ClientDispersion is their ratio (max/min; 0
	// when some client committed nothing) — the fairness check that no
	// client population starves another.
	ClientMinTps     float64 `json:"clientMinTps,omitempty"`
	ClientMaxTps     float64 `json:"clientMaxTps,omitempty"`
	ClientDispersion float64 `json:"clientDispersion,omitempty"`
	// Rejected and Retries count client-visible admission rejections
	// and the resubmissions they provoked over the window.
	Rejected uint64 `json:"rejected,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	// PoolRejections sums the replicas' server-side mempool rejections
	// over the window — nonzero means admission control engaged.
	PoolRejections uint64 `json:"poolRejections,omitempty"`
	// Shed counts open-loop arrivals the fleet backend dropped because
	// its bounded HTTP submitter pool was saturated — offered load that
	// never reached a replica. Always zero on in-process backends,
	// whose open loop submits without blocking.
	Shed uint64 `json:"shed,omitempty"`
	// CGR and BI are the chain micro-metrics over the window.
	CGR float64 `json:"cgr"`
	BI  float64 `json:"bi"`
	// Blocks is the observer's committed block count over the window.
	Blocks uint64 `json:"blocks"`
	// NetMsgs and NetBytes are switch-wide message totals over the
	// window.
	NetMsgs  uint64 `json:"netMsgs"`
	NetBytes uint64 `json:"netBytes"`
	// Pipeline sums the apply, WAL, sync and snapshot counters over
	// honest replicas.
	Pipeline metrics.PipelineStats `json:"pipeline"`
}

// NetworkStats are the deployment-wide message counters of a whole
// run: switch counters on the switch backend, per-endpoint transport
// sums on TCP. The connection-churn fields are TCP-only (zero, and
// omitted from JSON, in simulation).
type NetworkStats struct {
	Msgs    uint64 `json:"msgs"`
	Bytes   uint64 `json:"bytes"`
	Dropped uint64 `json:"dropped"`
	// Dials counts outbound connections; Redials the subset replacing
	// an earlier connection to the same peer (reconnects after
	// crash-driven resets); Accepted the inbound connections.
	Dials    uint64 `json:"dials,omitempty"`
	Redials  uint64 `json:"redials,omitempty"`
	Accepted uint64 `json:"accepted,omitempty"`
}

// Result is the structured outcome of one experiment. It marshals to
// JSON losslessly (durations are nanosecond integers), so results can
// feed dashboards, regression tracking, and cross-run comparison.
type Result struct {
	// Name echoes the experiment label.
	Name string `json:"name,omitempty"`
	// Backend records the transport the run deployed over ("switch"
	// or "tcp"), so result files from the two paths stay
	// distinguishable when compared.
	Backend string `json:"backend,omitempty"`
	// Config, Workload, Faults, and Measure echo the declared
	// scenario, so a result file is self-describing and the run it
	// records can be reconstructed from it.
	Config   config.Config `json:"config"`
	Workload workload.Spec `json:"workload"`
	Faults   FaultSchedule `json:"faults,omitempty"`
	Measure  MeasurePlan   `json:"measure"`
	// Points holds one datum per measured load level.
	Points []Point `json:"points"`
	// Series is the committed-rate timeline (Tx/s per bucket of
	// Measure.Bucket) when the plan sets one. Like Chain/Pipeline/
	// Network below it covers the final level only — pair Bucket
	// with a single-run plan, not a ladder.
	Series []float64 `json:"series,omitempty"`
	// Chain aggregates the chain micro-metrics of the final level.
	Chain metrics.ChainStats `json:"chain"`
	// Pipeline sums the pipeline counters of the final level.
	Pipeline metrics.PipelineStats `json:"pipeline"`
	// Network totals the switch counters of the final level.
	Network NetworkStats `json:"network"`
	// Heights is every replica's final committed height (index is
	// replica ID minus one) at the end of the final level — the raw
	// material of the recovery verdict below.
	Heights []uint64 `json:"heights,omitempty"`
	// SnapshotHeights is every replica's final snapshot height
	// (captured locally or installed from peers), present when the
	// scenario enables snapshotting. A non-zero entry on a replica
	// that was isolated past the compacted history proves it
	// recovered by installing a snapshot rather than streaming the
	// whole gap.
	SnapshotHeights []uint64 `json:"snapshotHeights,omitempty"`
	// PreKillHeights and PreKillLedgerHeights record, per replica
	// (index is ID minus one), the committed height and the on-disk
	// ledger height fetched in the instant before that replica's
	// process was SIGKILLed — zero for replicas never killed. They
	// anchor the exact-height recovery verdict of kill/restart
	// scenarios: with the safety WAL there is no replay holdback, so a
	// restarted replica must re-commit at least its pre-kill ledger on
	// bootstrap (ReplayedBlocks >= PreKillLedgerHeights[i]) and finish
	// the run at or above its pre-kill committed height. Fleet backend
	// only — in-process crashes never lose the replica's memory.
	PreKillHeights       []uint64 `json:"preKillHeights,omitempty"`
	PreKillLedgerHeights []uint64 `json:"preKillLedgerHeights,omitempty"`
	// Pids records, on the fleet backend, the OS process ID of every
	// replica's latest incarnation (index is replica ID minus one) —
	// the audit trail that the run really was multi-process and that
	// restart legs re-exec'd. Absent on in-process backends.
	Pids []int `json:"pids,omitempty"`
	// Recovered reports whether every honest replica finished within
	// one forest keep window of the highest honest committed height.
	// With ledger-backed state sync this holds even for schedules
	// that isolate a replica for far longer than the keep window; a
	// false verdict means some replica was still catching up (or
	// never did) when the run ended.
	Recovered bool `json:"recovered"`
	// Consistent records the cross-replica consistency verdict over
	// every level.
	Consistent bool `json:"consistent"`
	// Violations sums safety violations across replicas and levels;
	// correct runs report zero.
	Violations uint64 `json:"violations"`
	// Elapsed is the wall-clock cost of the whole experiment.
	Elapsed time.Duration `json:"elapsed"`
	// Error records what ended the run early, if anything.
	Error string `json:"error,omitempty"`
	// Stages digests the per-stage block-lifecycle histograms (verify,
	// vote, qc, commit, execute) merged across honest replicas — where
	// commit latency actually goes.
	Stages map[string]metrics.LatencySummary `json:"stages,omitempty"`
	// ProposerShares is each replica's fraction of the committed chain
	// (index is replica ID minus one) — the chain-quality measurement.
	ProposerShares []float64 `json:"proposerShares,omitempty"`
	// Gini is the Gini coefficient over ProposerShares: 0 for perfect
	// leader equality, approaching 1 as one leader owns the chain.
	Gini float64 `json:"gini"`
}

// fillChainQuality derives the observability digests (stage-breakdown
// summaries, per-proposer shares, Gini) from the merged chain stats —
// shared by the in-process and fleet result paths.
func (r *Result) fillChainQuality(chain metrics.ChainStats) {
	r.Stages = chain.StageSummaries()
	r.ProposerShares = chain.Shares()
	r.Gini = chain.Gini
}

// Validate reports the first problem with the declared experiment.
// Config validation happens at cluster assembly.
func (e *Experiment) Validate() error {
	if err := e.Workload.Validate(); err != nil {
		return err
	}
	if err := e.Faults.Validate(); err != nil {
		return err
	}
	// Events naming replicas outside the cluster would fire as
	// silent no-ops (crashing node 99 of 4 marks nobody).
	for i, ev := range e.Faults {
		for _, id := range ev.Nodes {
			if id < 1 || int(id) > e.Config.N {
				return fmt.Errorf("harness: fault event %d names replica %s outside n=%d", i, id, e.Config.N)
			}
		}
		for id := range ev.Groups {
			if id < 1 || int(id) > e.Config.N {
				return fmt.Errorf("harness: fault event %d partitions replica %s outside n=%d", i, id, e.Config.N)
			}
		}
	}
	switch e.Election {
	case "", ElectionRoundRobin, ElectionHashed:
	default:
		return fmt.Errorf("harness: unknown election mode %q", e.Election)
	}
	if e.Backend != "" {
		known := false
		for _, b := range Backends() {
			if e.Backend == b {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("harness: unknown backend %q (have %s)",
				e.Backend, strings.Join(Backends(), ", "))
		}
	}
	for i, lvl := range e.Measure.Levels {
		if lvl <= 0 {
			return fmt.Errorf("harness: level %d must be positive, have %d", i, lvl)
		}
	}
	for i, rate := range e.Measure.Rates {
		if rate <= 0 {
			return fmt.Errorf("harness: rate %d must be positive, have %v", i, rate)
		}
	}
	if e.Measure.Rate < 0 || e.Measure.Concurrency < 0 {
		return fmt.Errorf("harness: negative load level")
	}
	for i, cs := range e.Measure.Clients {
		if cs.Count < 0 {
			return fmt.Errorf("harness: measure.clients[%d].count must be non-negative, have %d", i, cs.Count)
		}
		if cs.Workload != nil {
			if err := cs.Workload.Validate(); err != nil {
				return fmt.Errorf("harness: measure.clients[%d]: %w", i, err)
			}
		}
	}
	if len(e.Measure.Clients) > 0 && (len(e.Measure.Levels) > 0 || e.Measure.Concurrency > 0) {
		return fmt.Errorf("harness: measure.clients fixes closed-loop concurrency at one in-flight request per client; drop measure.concurrency/measure.levels")
	}
	return nil
}

// fleetSpecs normalizes the plan's client populations: a missing
// Clients section means one client running the experiment workload.
func fleetSpecs(exp Experiment) []ClientSpec {
	if len(exp.Measure.Clients) > 0 {
		return exp.Measure.Clients
	}
	return []ClientSpec{{Count: 1}}
}

// fleetSize counts the clients the normalized populations declare.
func fleetSize(specs []ClientSpec) int {
	total := 0
	for _, cs := range specs {
		if cs.Count <= 0 {
			total++
			continue
		}
		total += cs.Count
	}
	return total
}

// Run executes the experiment and returns its structured result. On
// error the returned Result still carries every point measured before
// the failure, with Error set.
func Run(exp Experiment) (*Result, error) {
	start := time.Now()
	// Consistent stays false until every level has passed its
	// cross-replica consistency check: an errored or never-run
	// experiment must not serialize as a verified-consistent one.
	backend := exp.Backend
	if backend == "" {
		backend = BackendSwitch
	}
	res := &Result{
		Name:     exp.Name,
		Backend:  backend,
		Config:   exp.Config,
		Workload: exp.Workload,
		Faults:   exp.Faults,
		Measure:  exp.Measure,
	}
	fail := func(err error) (*Result, error) {
		res.Error = err.Error()
		res.Elapsed = time.Since(start)
		return res, err
	}
	if err := exp.Validate(); err != nil {
		return fail(err)
	}

	type step struct {
		concurrency int
		rate        float64
	}
	var steps []step
	switch {
	case len(exp.Measure.Levels) > 0:
		for _, lvl := range exp.Measure.Levels {
			steps = append(steps, step{concurrency: lvl})
		}
	case len(exp.Measure.Rates) > 0:
		for _, rate := range exp.Measure.Rates {
			steps = append(steps, step{rate: rate})
		}
	case exp.Measure.Rate > 0:
		steps = []step{{rate: exp.Measure.Rate}}
	default:
		conc := exp.Measure.Concurrency
		if conc == 0 {
			conc = exp.Config.Concurrency
		}
		steps = []step{{concurrency: conc}}
	}

	var best float64
	for _, st := range steps {
		var p Point
		var err error
		if backend == BackendFleet {
			p, err = runFleetStep(exp, st.concurrency, st.rate, res)
		} else {
			p, err = runStep(exp, st.concurrency, st.rate, res)
		}
		if err != nil {
			return fail(err)
		}
		res.Points = append(res.Points, p)
		if exp.Measure.SaturationStop {
			if p.Throughput > best {
				best = p.Throughput
			} else if p.Throughput < 0.9*best && len(res.Points) >= 3 {
				break // clearly past saturation
			}
		}
	}
	res.Consistent = true
	res.Elapsed = time.Since(start)
	return res, nil
}

// runStep executes one load level on a fresh cluster, filling the
// result's whole-run aggregates and returning the window's point.
func runStep(exp Experiment, concurrency int, rate float64, res *Result) (Point, error) {
	var p Point
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

	// One epoch anchors both the committed-rate buckets and the fault
	// offsets, so the timeline and the schedule line up exactly.
	epoch := time.Now()
	var series *metrics.TimeSeries
	if exp.Measure.Bucket > 0 {
		series = metrics.NewTimeSeries(epoch, exp.Measure.Bucket)
		opts.CommitSeries = series
	}
	c, err := cluster.New(cfg, opts)
	if err != nil {
		return p, err
	}
	defer c.Stop()
	c.Start()

	// The fault scheduler compiles the declared timeline onto the
	// cluster: condition-model changes on both backends, plus real
	// socket teardown for crashes over TCP.
	stop := make(chan struct{})
	defer close(stop)
	if len(exp.Faults) > 0 {
		go exp.Faults.run(c, epoch, stop, nil)
	}

	// Assemble the benchmark fleet: one client per declared population
	// slot, each with its own deterministically seeded generator so a
	// mixed fleet (readers alongside writers) replays exactly.
	specs := fleetSpecs(exp)
	var clients []*client.Client
	idx := 0
	for _, cs := range specs {
		count := cs.Count
		if count <= 0 {
			count = 1
		}
		wl := exp.Workload
		if cs.Workload != nil {
			wl = *cs.Workload
		}
		for i := 0; i < count; i++ {
			gen, err := wl.New(cfg.PayloadSize, cfg.Seed+int64(idx))
			if err != nil {
				return p, err
			}
			cl, err := c.NewClient()
			if err != nil {
				return p, err
			}
			cl.SetWorkload(gen)
			cl.SetFanout(exp.Measure.Fanout)
			clients = append(clients, cl)
			idx++
		}
	}
	window := exp.Measure.Window
	if window <= 0 {
		window = cfg.Runtime
	}
	perOp := exp.Measure.PerOpTimeout
	if perOp <= 0 {
		perOp = 5 * time.Second
	}
	if rate > 0 {
		p.Offered = rate
		per := rate / float64(len(clients))
		for _, cl := range clients {
			cl.RunOpenLoop(per)
		}
	} else {
		if len(exp.Measure.Clients) > 0 {
			// A declared fleet fixes closed-loop concurrency: one
			// in-flight request per client.
			concurrency = len(clients)
			for _, cl := range clients {
				cl.RunClosedLoop(1, perOp)
			}
		} else {
			clients[0].RunClosedLoop(concurrency, perOp)
		}
		p.Offered = float64(concurrency)
	}

	if exp.Measure.Warmup > 0 {
		time.Sleep(exp.Measure.Warmup)
	}
	startCommitted := make([]uint64, len(clients))
	var startRejected, startRetries uint64
	for i, cl := range clients {
		cl.Latency().Reset()
		startCommitted[i] = cl.Committed()
		startRejected += cl.Rejected()
		startRetries += cl.Retries()
	}
	startPoolRej := poolRejections(c, cfg)
	observer := c.Node(c.Observer())
	startChain := observer.Tracker().Snapshot()
	startMsgs, startBytes, _ := c.NetworkStats()
	begin := time.Now()
	time.Sleep(window)
	elapsed := time.Since(begin)
	endChain := observer.Tracker().Snapshot()
	endMsgs, endBytes, _ := c.NetworkStats()
	merged := &metrics.Latency{}
	var endRejected, endRetries uint64
	minTps, maxTps := math.Inf(1), 0.0
	for i, cl := range clients {
		merged.Merge(cl.Latency())
		endRejected += cl.Rejected()
		endRetries += cl.Retries()
		tps := float64(cl.Committed()-startCommitted[i]) / elapsed.Seconds()
		if tps < minTps {
			minTps = tps
		}
		if tps > maxTps {
			maxTps = tps
		}
	}
	lat := merged.Snapshot()
	chain := c.AggregateChain()

	p.Throughput = float64(endChain.TxCommitted-startChain.TxCommitted) / elapsed.Seconds()
	p.Mean, p.P50, p.P95, p.P99, p.P999 = lat.Mean, lat.P50, lat.P95, lat.P99, lat.P999
	p.Clients = len(clients)
	p.ClientMinTps, p.ClientMaxTps = minTps, maxTps
	if minTps > 0 {
		p.ClientDispersion = maxTps / minTps
	}
	p.Rejected = endRejected - startRejected
	p.Retries = endRetries - startRetries
	p.PoolRejections = poolRejections(c, cfg) - startPoolRej
	p.CGR, p.BI = chain.CGR, chain.BI
	p.Blocks = endChain.BlocksCommitted - startChain.BlocksCommitted
	p.NetMsgs, p.NetBytes = endMsgs-startMsgs, endBytes-startBytes
	p.Pipeline = c.AggregatePipeline()

	res.Chain = chain
	res.fillChainQuality(chain)
	res.Pipeline = p.Pipeline
	msgs, bytes, dropped := c.NetworkStats()
	ts := c.TransportStats()
	res.Network = NetworkStats{
		Msgs: msgs, Bytes: bytes, Dropped: dropped,
		Dials: ts.Dials, Redials: ts.Redials, Accepted: ts.Accepted,
	}
	res.Heights, res.Recovered = recoveryVerdict(c, cfg)
	if cfg.SnapshotInterval > 0 {
		res.SnapshotHeights = make([]uint64, cfg.N)
		for i := 1; i <= cfg.N; i++ {
			res.SnapshotHeights[i-1] = c.Node(types.NodeID(i)).Status().SnapshotHeight
		}
	}
	if series != nil {
		res.Series = series.Rates()
	}
	res.Violations += c.Violations()
	if err := c.ConsistencyCheck(); err != nil {
		return p, err
	}
	if res.Violations != 0 {
		return p, fmt.Errorf("harness: %d safety violations", res.Violations)
	}
	return p, nil
}

// needStores reports whether any declared workload — the experiment's
// or a client population's override — executes against a kvstore, so
// replicas get execution layers whenever some client needs them.
func needStores(exp Experiment) bool {
	if exp.Measure.WithStores || exp.Workload.Stores() {
		return true
	}
	for _, cs := range exp.Measure.Clients {
		if cs.Workload != nil && cs.Workload.Stores() {
			return true
		}
	}
	return false
}

// poolRejections sums the replicas' lifetime mempool rejection
// counters; callers difference two readings to window a delta.
func poolRejections(c *cluster.Cluster, cfg config.Config) uint64 {
	var total uint64
	for i := 1; i <= cfg.N; i++ {
		total += c.Node(types.NodeID(i)).PoolStats().Rejected
	}
	return total
}

// recoveryVerdict snapshots every replica's committed height at the
// end of a level and judges whether the honest ones converged.
func recoveryVerdict(c *cluster.Cluster, cfg config.Config) ([]uint64, bool) {
	heights := make([]uint64, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		heights[i-1] = c.Node(types.NodeID(i)).Status().CommittedHeight
	}
	return heights, recoveredFromHeights(heights, cfg)
}

// recoveredFromHeights judges recovery from the per-replica final
// committed heights (index = replica ID − 1): every honest replica
// must be within one forest keep window of the highest honest height,
// the band the live fetch path covers without deep sync. Fault
// schedules that isolate a replica for longer than the keep window
// only pass this with ledger-backed catch-up working. Shared by the
// in-process backends (which read heights off the cluster) and the
// fleet backend (which collects them over HTTP).
func recoveredFromHeights(heights []uint64, cfg config.Config) bool {
	var maxHonest uint64
	for i, h := range heights {
		if !cfg.IsByzantine(types.NodeID(i+1)) && h > maxHonest {
			maxHonest = h
		}
	}
	slack := uint64(cfg.KeepWindow())
	for i, h := range heights {
		if cfg.IsByzantine(types.NodeID(i + 1)) {
			continue
		}
		if h+slack < maxHonest {
			return false
		}
	}
	return true
}

package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// setupReps is how many times a run assembles its cluster. setup_s is
// the median, so one slow temp-file create does not decide it; the
// last assembly is the one the run measures on.
const setupReps = 11

// runOpts are the per-invocation knobs shared by every workload.
type runOpts struct {
	Seed int64
	// Warmup, when positive, overrides the workload's own.
	Warmup time.Duration
	Window time.Duration
	Trace  bool
	// OutDir holds ledgers while a run lasts and the trace files after.
	OutDir string
}

// result is everything one run of one workload reports.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	WindowS  float64 `json:"window_s"`
	summary

	SetupS       float64   `json:"setup_s"`
	SetupSamples []float64 `json:"setup_samples_s"`
	FailedShare  float64   `json:"failed_share"`

	// Open loop only.
	TargetRate   float64 `json:"target_rate,omitempty"`
	AchievedRate float64 `json:"achieved_rate,omitempty"`
	GenLagP99Ms  float64 `json:"gen_lag_p99_ms,omitempty"`
	GenLagMaxMs  float64 `json:"gen_lag_max_ms,omitempty"`

	CPUUsPerTx float64 `json:"process.cpu_us_per_tx"`
	CPUCores   float64 `json:"process.cpu_cores"`
	PeakRSSMB  float64 `json:"process.peak_rss_mb"`
	SLOOk      *bool   `json:"slo_ok,omitempty"`

	// Layers holds the per-layer metrics by name: the public-counter
	// deltas of every run, plus the replay table of a traced run.
	Layers map[string]float64 `json:"layers"`
	// Notes carries stated formulas and the tracing overhead.
	Notes []string `json:"notes,omitempty"`
	// CheckErrors lists failed correctness checks; empty means correct.
	CheckErrors []string `json:"check_errors,omitempty"`
}

// assemble builds the workload's cluster over a fresh ledger
// directory, starts it, attaches the single client and waits for the
// first committed reply. onCommit, if non-nil, observes every block
// the observer replica commits.
func assemble(w spec, dir string, onCommit func(types.View, types.Hash, []types.Transaction)) (
	*cluster.Cluster, *client.Client, error) {

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	c, err := cluster.New(w.config(), cluster.Options{
		Backend:          w.Backend,
		WithStores:       w.Mix.Stores(),
		LedgerDir:        dir,
		UnbufferedLedger: w.Unbuffered,
	})
	if err != nil {
		return nil, nil, err
	}
	if onCommit != nil {
		c.Node(c.Observer()).AddCommitListener(onCommit)
	}
	c.Start()
	cl, err := c.NewClient()
	if err != nil {
		c.Stop()
		return nil, nil, err
	}
	cl.SetFanout(w.Fanout)
	if !cl.SubmitAndWait(10 * time.Second) {
		c.Stop()
		return nil, nil, errors.New("no committed reply within 10s of cluster start")
	}
	return c, cl, nil
}

// counters is one reading of the program's public counters.
type counters struct {
	at          time.Time
	msgs, bytes uint64
	chain       metrics.ChainStats // observer
	// stages merges every replica's stage histograms: a replica keeps
	// spans only for blocks it proposed itself, and under crash1-rate
	// the observer's own blocks never commit.
	stages     map[string]metrics.HistData
	height     uint64 // observer
	timeouts   uint64 // all replicas
	rejections uint64 // all replicas
	pipe       metrics.PipelineStats
	cpu        time.Duration
}

// rusage reads the process's CPU time so far and its peak resident set.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readCounters(c *cluster.Cluster) counters {
	obs := c.Node(c.Observer())
	k := counters{at: time.Now()}
	k.cpu, _ = rusage()
	k.msgs, k.bytes, _ = c.NetworkStats()
	k.chain = obs.Tracker().Snapshot()
	k.stages = c.AggregateChain().Stages
	k.height = obs.Status().CommittedHeight
	k.pipe = obs.Pipeline().Snapshot()
	for i := 1; i <= c.Config().N; i++ {
		n := c.Node(types.NodeID(i))
		k.timeouts += n.TimeoutsFired()
		k.rejections += n.PoolStats().Rejected
	}
	return k
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterLayers turns two counter readings into the per-layer metrics
// every run reports: deltas across the measured window only.
func counterLayers(a, b counters) map[string]float64 {
	secs := b.at.Sub(a.at).Seconds()
	txs := float64(b.chain.TxCommitted - a.chain.TxCommitted)
	blocks := float64(b.chain.BlocksCommitted - a.chain.BlocksCommitted)
	out := map[string]float64{
		"network.msgs_per_tx":      ratio(float64(b.msgs-a.msgs), txs),
		"network.bytes_per_tx":     ratio(float64(b.bytes-a.bytes), txs),
		"core.tx_per_block":        ratio(txs, blocks),
		"core.blocks_per_s":        ratio(blocks, secs),
		"core.views_per_commit":    ratio(float64(b.chain.ViewsEntered-a.chain.ViewsEntered), blocks),
		"pacemaker.timeouts_per_s": ratio(float64(b.timeouts-a.timeouts), secs),
		"mempool.rejections":       float64(b.rejections - a.rejections),
		"wal.syncs_per_block":      ratio(float64(b.pipe.WALSyncs-a.pipe.WALSyncs), blocks),
	}
	// A LatencySummary carries count and exact mean, so the window's
	// own mean is recoverable from two lifetime readings.
	wa, wb := a.pipe.WALSyncWait, b.pipe.WALSyncWait
	out["wal.sync_mean_us"] = ratio(
		float64(wb.Mean)*float64(wb.Count)-float64(wa.Mean)*float64(wa.Count),
		float64(wb.Count-wa.Count)) / 1e3
	// Stage means are exact (histogram sum ÷ count); only the stage
	// quantiles are bucketed, and none is reported here.
	for _, name := range metrics.StageNames {
		ha, hb := a.stages[name], b.stages[name]
		out["trace.stage_mean_ms."+name] = ratio(float64(hb.Sum-ha.Sum), float64(hb.Count-ha.Count)) / 1e6
	}
	return out
}

// seqSet is a bitset over TxID.Seq. The run has one client, so Seq is
// dense from 1; a map of millions of TxIDs would distort the run.
type seqSet struct {
	bits   []uint64
	client uint64
	dups   int
}

// observe marks every transaction of a committed block and counts any
// it has seen before (or that claims a second client).
func (s *seqSet) observe(_ types.View, _ types.Hash, txs []types.Transaction) {
	for i := range txs {
		id := txs[i].ID
		if s.client == 0 {
			s.client = id.Client
		}
		w, bit := id.Seq/64, uint64(1)<<(id.Seq%64)
		for uint64(len(s.bits)) <= w {
			s.bits = append(s.bits, 0)
		}
		if id.Client != s.client || s.bits[w]&bit != 0 {
			s.dups++
		}
		s.bits[w] |= bit
	}
}

// quiesce waits until the observer's committed transaction count has
// stopped moving: the blocks in flight when the load stopped have
// drained, so the committed-replies check compares settled counts.
func quiesce(c *cluster.Cluster) {
	obs := c.Node(c.Observer())
	last := obs.Tracker().Snapshot().TxCommitted
	for stable := 0; stable < 3; {
		time.Sleep(50 * time.Millisecond)
		if n := obs.Tracker().Snapshot().TxCommitted; n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
}

// check runs the correctness checks on a quiesced, stopped cluster.
func check(w spec, c *cluster.Cluster, cl *client.Client, once *seqSet) []string {
	var errs []string
	if err := c.ConsistencyCheck(); err != nil {
		errs = append(errs, err.Error())
	}
	if v := c.Violations(); v != 0 {
		errs = append(errs, fmt.Sprintf("%d safety violations", v))
	}
	committed := c.Node(c.Observer()).Tracker().Snapshot().TxCommitted
	if replies := cl.Committed(); replies > committed {
		errs = append(errs, fmt.Sprintf("%d committed replies but observer committed %d transactions",
			replies, committed))
	}
	if w.Mix.Kind == workload.KindKVBank {
		// The examples/kvbank audit: money is conserved on every
		// replica, untouched accounts counting at the initial balance.
		want := uint64(bankAccounts * bankInitial)
		for i := 1; i <= w.N; i++ {
			var total uint64
			for a := 0; a < bankAccounts; a++ {
				total += c.Store(types.NodeID(i)).BalanceOr(workload.Account(a), bankInitial)
			}
			if total != want {
				errs = append(errs, fmt.Sprintf("replica %d holds %d, want %d: money not conserved", i, total, want))
			}
		}
	}
	if once != nil && once.dups != 0 {
		errs = append(errs, fmt.Sprintf("%d transactions committed more than once on the observer", once.dups))
	}
	return errs
}

// runWorkload performs one complete run: assemble (setupReps times),
// crash if declared, warm up, measure, stop, check — and, traced,
// replay the observer's committed blocks through every layer.
func runWorkload(w spec, o runOpts) (*result, error) {
	res := &result{Workload: w.Name, Seed: o.Seed, Traced: o.Trace, WindowS: o.Window.Seconds()}
	runDir := filepath.Join(o.OutDir, fmt.Sprintf("run-%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(runDir)

	var once *seqSet
	var onCommit func(types.View, types.Hash, []types.Transaction)
	if o.Trace {
		once = &seqSet{}
		onCommit = once.observe
	}
	var c *cluster.Cluster
	var cl *client.Client
	var dir string
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.Stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			if once != nil {
				*once = seqSet{}
			}
		}
		dir = filepath.Join(runDir, fmt.Sprintf("ledgers-%d", i))
		t0 := time.Now()
		var err error
		if c, cl, err = assemble(w, dir, onCommit); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.Name, err)
		}
		res.SetupSamples = append(res.SetupSamples, time.Since(t0).Seconds())
	}
	defer c.Stop()
	res.SetupS = median(res.SetupSamples)

	if w.Crash != 0 {
		c.Crash(w.Crash)
	}
	gen, err := w.Mix.New(w.Payload, o.Seed)
	if err != nil {
		return nil, err
	}
	cl.SetWorkload(gen)

	warmup := w.Warmup
	if o.Warmup > 0 {
		warmup = o.Warmup
	}
	loadStart := time.Now()
	rec := newRecorder(loadStart.Add(warmup), o.Window)
	stop := make(chan struct{})
	loadDone := make(chan struct{})
	var lags []int64
	var fired int
	go func() {
		defer close(loadDone)
		if w.InFlight > 0 {
			closedLoop(w.InFlight, cl.SubmitAndWait, rec, stop)
		} else {
			lags, fired = openLoop(wallClock{}, loadStart, newSchedule(w.Rate, o.Seed),
				cl.SubmitAndWait, rec, stop)
		}
	}()
	time.Sleep(time.Until(rec.start))
	before := readCounters(c)
	time.Sleep(time.Until(rec.start.Add(o.Window)))
	after := readCounters(c)
	close(stop)
	cl.Stop() // releases the operations still waiting for a reply
	<-loadDone

	res.summary = rec.summarize()
	res.FailedShare = ratio(float64(res.Failed), float64(res.Attempted))
	res.Layers = counterLayers(before, after)
	res.CPUUsPerTx = ratio(float64((after.cpu - before.cpu).Microseconds()), float64(res.Attempted-res.Failed))
	res.CPUCores = ratio((after.cpu - before.cpu).Seconds(), after.at.Sub(before.at).Seconds())
	_, res.PeakRSSMB = rusage()
	if w.InFlight == 0 {
		res.TargetRate = w.Rate
		res.AchievedRate = float64(fired) / o.Window.Seconds()
		res.GenLagP99Ms, res.GenLagMaxMs = lagReport(lags)
	}
	if w.SLOMs > 0 {
		ok := res.Failed == 0 && res.P99Ms <= w.SLOMs
		res.SLOOk = &ok
	}

	// Audit a stopped cluster: every replica is then at a block
	// boundary, so no balance sum is torn by a straggler block.
	quiesce(c)
	c.Stop()
	res.CheckErrors = check(w, c, cl, once)
	if res.Attempted == 0 {
		res.CheckErrors = append(res.CheckErrors, "no operation finished inside the window")
	}
	if o.Trace {
		path := filepath.Join(dir, fmt.Sprintf("replica-%d.ledger", c.Observer()))
		if err := replayLayers(w, o, res, path, before.height, after.height, runDir); err != nil {
			return nil, fmt.Errorf("%s: replay: %w", w.Name, err)
		}
	}
	return res, nil
}

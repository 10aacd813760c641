package main

import (
	"math"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/harness"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// figure declares one table or figure of the paper's evaluation
// (Section VI), or an ablation, as the harness experiments that
// regenerate it. runs builds the declaration for a duration scale
// (1 = paper-like run lengths; smaller values shrink every warm-up and
// window, each floored at 150 ms) and a seed; it measures nothing.
// Absolute numbers differ from the paper's testbed (one machine, not
// one VM per replica); the comparative shapes are the target.
type figure struct {
	name string
	desc string
	runs func(scale float64, seed int64) []harness.Experiment
}

var figures = []figure{
	{"table2", "arrival rate vs throughput (HotStuff)", table2},
	{"fig8", "latency vs throughput, 4/100 8/100 4/400 8/400 (n/bsize)", fig8},
	{"fig9", "block sizes 100/400/800 (+OHS)", fig9},
	{"fig10", "payload sizes 0/128/1024", fig10},
	{"fig11", "added network delays 0/5/10ms", fig11},
	{"fig12", "scalability 4..64 nodes", fig12},
	{"fig13", "forking attack, 32 nodes", attack("fig13", config.StrategyForking, 100*time.Millisecond)},
	{"fig14", "silence attack, 32 nodes", attack("fig14", config.StrategySilence, 50*time.Millisecond)},
	{"fig15", "responsiveness timeline", fig15},
	{"ablation-fanout", "client fan-out designs", ablationFanout},
	{"ablation-election", "leader-election designs", ablationElection},
	{"load", "open-loop rate ladder through saturation (tail latency, admission control)", load},
	{"stages", "per-stage commit-latency breakdown + chain quality (proposer shares, Gini)", stages},
}

// happyPathProtocols is the paper's three-way comparison set.
var happyPathProtocols = []string{
	config.ProtocolHotStuff,
	config.ProtocolTwoChainHS,
	config.ProtocolStreamlet,
}

// Saturated closed-loop throughput (tx/s, 1,024 workers) of the
// configurations whose open-loop rates sit at fractions of it: the
// median of three runs at -scale 0.25 on a 2-vCPU host. The rates are
// declared rather than measured before each run, so two checkouts
// always face the same offered load. Fig 8's values sit in its shape
// table; load and stages run one configuration and each keeps the
// median of its own three readings.
const (
	satTable2 = 130000 // HotStuff, n=4, bsize=400
	satLoad   = 144000 // the same with memsize 4096
	satStages = 130000 // the same with memsize 4096
)

// substrate is the baseline configuration of the single-machine
// substrate: 4 replicas, HMAC authentication, 200µs ± 50µs link delay
// (the <1ms same-datacenter profile of the paper's testbed), and
// 1 Gbps modeled NIC bandwidth.
func substrate(seed int64) config.Config {
	cfg := config.Default()
	cfg.CryptoScheme = "hmac"
	cfg.Seed = seed
	cfg.Delay = 200 * time.Microsecond
	cfg.DelayStd = 50 * time.Microsecond
	cfg.Bandwidth = 1.25e8 // 1 Gbps in bytes/s
	cfg.Timeout = 100 * time.Millisecond
	cfg.MaxNetworkDelay = 5 * time.Millisecond
	cfg.MemSize = 1 << 17
	return cfg
}

// protocolConfig is the substrate running proto with its default
// responsiveness.
func protocolConfig(seed int64, proto string) config.Config {
	cfg := substrate(seed)
	cfg.Protocol = proto
	cfg.ApplyProtocolDefaults()
	return cfg
}

// scaled shrinks a duration by the run scale, floored at 150 ms so a
// window still measures something.
func scaled(scale float64, d time.Duration) time.Duration {
	return max(time.Duration(float64(d)*scale), 150*time.Millisecond)
}

// ratesAt places open-loop rates at fractions of a saturation rate,
// rounded to whole transactions per second.
func ratesAt(sat float64, fracs ...float64) []float64 {
	rates := make([]float64, len(fracs))
	for i, f := range fracs {
		rates[i] = math.Round(sat * f)
	}
	return rates
}

// run declares one measured run: warm-up, then the window.
func run(name string, cfg config.Config, warm, window time.Duration) harness.Experiment {
	return harness.Experiment{Name: name, Config: cfg, Measure: harness.MeasurePlan{Warmup: warm, Window: window}}
}

// openLoop declares one run per rate, each at a single open-loop rate.
func openLoop(name string, cfg config.Config, warm, window time.Duration, rates []float64) []harness.Experiment {
	var exps []harness.Experiment
	for _, rate := range rates {
		e := run(name, cfg, warm, window)
		e.Measure.Rate = rate
		exps = append(exps, e)
	}
	return exps
}

// closedLoop declares one closed-loop run at a fixed concurrency.
func closedLoop(name string, cfg config.Config, warm, window time.Duration, concurrency int) harness.Experiment {
	e := run(name, cfg, warm, window)
	e.Measure.Concurrency = concurrency
	return e
}

// ladder declares a closed-loop concurrency ladder that stops once
// throughput clearly degrades past its best (the paper's "increase
// concurrency until saturated").
func ladder(name string, cfg config.Config, warm, window time.Duration) harness.Experiment {
	e := run(name, cfg, warm, window)
	e.Measure.Levels = []int{2, 8, 32, 128, 512}
	e.Measure.SaturationStop = true
	return e
}

// table2 is Table II: arrival rate versus committed throughput for
// HotStuff, block size 400, 4 replicas. Below saturation throughput
// tracks the arrival rate (the Result's offered vs throughput).
func table2(scale float64, seed int64) []harness.Experiment {
	cfg := protocolConfig(seed, config.ProtocolHotStuff)
	cfg.BlockSize = 400
	return openLoop("table2", cfg, scaled(scale, time.Second), scaled(scale, 3*time.Second),
		ratesAt(satTable2, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90, 0.98))
}

// fig8 is Figure 8's measured curves: open-loop latency/throughput of
// HotStuff, 2CHS and Streamlet at four (replicas/block size) shapes.
// bamboo-model prints the Section V model's curve for any shape.
func fig8(scale float64, seed int64) []harness.Experiment {
	var exps []harness.Experiment
	for _, shape := range []struct {
		n, bsize int
		sat      [3]float64 // per happyPathProtocols entry
	}{
		{4, 100, [3]float64{79000, 76000, 102000}},
		{8, 100, [3]float64{75000, 72000, 57000}},
		{4, 400, [3]float64{151000, 167000, 166000}},
		{8, 400, [3]float64{93000, 103000, 101000}},
	} {
		for i, proto := range happyPathProtocols {
			cfg := protocolConfig(seed, proto)
			cfg.N = shape.n
			cfg.BlockSize = shape.bsize
			exps = append(exps, openLoop("fig8", cfg, scaled(scale, time.Second), scaled(scale, 2500*time.Millisecond),
				ratesAt(shape.sat[i], 0.2, 0.4, 0.6, 0.8, 0.95))...)
		}
	}
	return exps
}

// fig9 is Figure 9: closed-loop ladders at block sizes 100, 400 and
// 800 with empty payloads, plus OHS at 100 and 800 (the paper has no
// meaningful OHS result at 400).
func fig9(scale float64, seed int64) []harness.Experiment {
	var exps []harness.Experiment
	for _, proto := range []string{config.ProtocolHotStuff, config.ProtocolTwoChainHS, config.ProtocolStreamlet, config.ProtocolOHS} {
		for _, bsize := range []int{100, 400, 800} {
			if proto == config.ProtocolOHS && bsize == 400 {
				continue
			}
			cfg := protocolConfig(seed, proto)
			cfg.BlockSize = bsize
			cfg.PayloadSize = 0
			exps = append(exps, ladder("fig9", cfg, scaled(scale, 800*time.Millisecond), scaled(scale, 2*time.Second)))
		}
	}
	return exps
}

// fig10 is Figure 10: closed-loop ladders at payload sizes 0, 128 and
// 1024 bytes, block size 400.
func fig10(scale float64, seed int64) []harness.Experiment {
	var exps []harness.Experiment
	for _, proto := range happyPathProtocols {
		for _, psize := range []int{0, 128, 1024} {
			cfg := protocolConfig(seed, proto)
			cfg.PayloadSize = psize
			exps = append(exps, ladder("fig10", cfg, scaled(scale, 800*time.Millisecond), scaled(scale, 2*time.Second)))
		}
	}
	return exps
}

// fig11 is Figure 11: closed-loop ladders under added network delays
// of 0, 5±1 and 10±2 ms (payload 128, block size 400).
func fig11(scale float64, seed int64) []harness.Experiment {
	var exps []harness.Experiment
	for _, proto := range happyPathProtocols {
		for _, d := range []struct{ mean, std time.Duration }{
			{0, 0},
			{5 * time.Millisecond, 1 * time.Millisecond},
			{10 * time.Millisecond, 2 * time.Millisecond},
		} {
			cfg := protocolConfig(seed, proto)
			cfg.PayloadSize = 128
			if d.mean > 0 {
				cfg.Delay, cfg.DelayStd = d.mean, d.std
				// Delayed links need a proportionally longer view
				// timer, like a real WAN deployment would set.
				cfg.Timeout = 100*time.Millisecond + 10*d.mean
			}
			exps = append(exps, ladder("fig11", cfg, scaled(scale, time.Second), scaled(scale, 2500*time.Millisecond)))
		}
	}
	return exps
}

// fig12 is Figure 12: scalability at 4 to 64 replicas (payload 128,
// block size 400), three seeds per point for the paper's error bars.
// Streamlet's O(n³) messages make its large-n numbers degenerate, as
// the paper reports.
func fig12(scale float64, seed int64) []harness.Experiment {
	var exps []harness.Experiment
	for _, n := range []int{4, 8, 16, 32, 64} {
		for _, proto := range happyPathProtocols {
			cfg := protocolConfig(seed, proto)
			cfg.N = n
			cfg.PayloadSize = 128
			// Bigger clusters carry more consensus overhead per view;
			// stretch the timer the way an operator would.
			cfg.Timeout = 200 * time.Millisecond
			for rep := int64(0); rep < 3; rep++ {
				cfg.Seed = seed + rep
				// Saturating concurrency grows with cluster size.
				exps = append(exps, closedLoop("fig12", cfg, scaled(scale, time.Second), scaled(scale, 2*time.Second), 32*n))
			}
		}
	}
	return exps
}

// attack declares Figures 13 and 14: 32 replicas, 0 to 10 of them
// Byzantine under strategy; the Results' CGR and BI are the chain
// metrics the paper plots. Expected (Section VI-C), forking: Streamlet
// flat on every metric, 2CHS ahead of HotStuff, whose BI starts near 3
// against 2CHS's 2. Silence (the paper's 50 ms timeout): throughput
// drops everywhere; HotStuff and 2CHS lose the block before each
// silent view (CGR < 1) while Streamlet's CGR stays 1.
func attack(name, strategy string, timeout time.Duration) func(float64, int64) []harness.Experiment {
	return func(scale float64, seed int64) []harness.Experiment {
		var exps []harness.Experiment
		for _, proto := range happyPathProtocols {
			for _, byz := range []int{0, 2, 4, 6, 8, 10} {
				cfg := protocolConfig(seed, proto)
				cfg.N = 32
				cfg.PayloadSize = 128
				cfg.Strategy = strategy
				cfg.ByzNo = byz
				cfg.Timeout = timeout
				exps = append(exps, closedLoop(name, cfg, scaled(scale, time.Second), scaled(scale, 2500*time.Millisecond), 32*8))
			}
		}
		return exps
	}
}

// fig15 is Figure 15, the responsiveness timeline: steady closed-loop
// load, then a window of 10-100 ms message delays, then one replica
// goes silent. t10 runs a 10 ms view timer and responsive view
// changes; t100 a 100 ms timer that waits it out. The Result's Series
// is the committed Tx/s per bucket. Expected: under t10 everyone
// stalls during the fluctuation and only HotStuff resumes at once;
// under t100 all stay live at lower throughput.
func fig15(scale float64, seed int64) []harness.Experiment {
	pre := scaled(scale, 3*time.Second)
	fluct := scaled(scale, 10*time.Second)
	post := scaled(scale, 12*time.Second)
	var exps []harness.Experiment
	for _, s := range []struct {
		timeout    time.Duration
		responsive bool
	}{
		{10 * time.Millisecond, true},   // t10
		{100 * time.Millisecond, false}, // t100
	} {
		for _, proto := range happyPathProtocols {
			cfg := substrate(seed)
			cfg.Protocol = proto
			cfg.Timeout = s.timeout
			cfg.Responsive = s.responsive
			cfg.MaxNetworkDelay = s.timeout
			cfg.ByzNo = 1
			cfg.Strategy = config.StrategySilence
			cfg.StrategyDelay = pre + fluct
			exps = append(exps, harness.Experiment{
				Name:   "fig15-" + proto,
				Config: cfg,
				Faults: harness.FaultSchedule{
					harness.FluctuateAt(pre, fluct, 10*time.Millisecond, 100*time.Millisecond),
				},
				Measure: harness.MeasurePlan{
					Window:       pre + fluct + post,
					Concurrency:  64,
					PerOpTimeout: time.Second,
					Bucket:       scaled(scale, 500*time.Millisecond),
				},
			})
		}
	}
	return exps
}

// ablation is the closed-loop HotStuff run each ablation varies.
func ablation(name string, scale float64, seed int64) harness.Experiment {
	return closedLoop(name, protocolConfig(seed, config.ProtocolHotStuff),
		scaled(scale, 800*time.Millisecond), scaled(scale, 2*time.Second), 64)
}

// ablationFanout contrasts the client designs of Section V-E: each
// transaction to one random replica (the queuing model's client)
// versus to every replica.
func ablationFanout(scale float64, seed int64) []harness.Experiment {
	single, all := ablation("ablation-fanout", scale, seed), ablation("ablation-fanout", scale, seed)
	all.Measure.Fanout = true
	return []harness.Experiment{single, all}
}

// ablationElection contrasts round-robin with hash-based leader
// election (Section V-E): hashing repeats leaders now and then, so a
// transaction waits longer for its home replica's turn.
func ablationElection(scale float64, seed int64) []harness.Experiment {
	rr, hashed := ablation("ablation-election", scale, seed), ablation("ablation-election", scale, seed)
	rr.Election, hashed.Election = harness.ElectionRoundRobin, harness.ElectionHashed
	return []harness.Experiment{rr, hashed}
}

// kvClients is a population of zipfian key-value clients, 10% writes.
func kvClients(count int) harness.ClientSpec {
	return harness.ClientSpec{Count: count, Workload: &workload.Spec{
		Kind: workload.KindKV, Keys: 4096, WriteRatio: 0.1, ZipfS: 1.1}}
}

// overloadConfig is HotStuff at block size 400 with a small pool (4096
// against the substrate's 128k), so rates past saturation are turned
// away by admission control instead of queueing the whole window.
func overloadConfig(seed int64) config.Config {
	cfg := protocolConfig(seed, config.ProtocolHotStuff)
	cfg.BlockSize = 400
	cfg.MemSize = 4096
	return cfg
}

// load is an open-loop rate ladder through saturation with a mixed
// fleet (9 zipfian kv clients, 1 kvbank writer): throughput plateaus
// at the knee, p99 inflates past it, and the top rung — four times the
// declared saturation, past any runner's — makes the pool reject.
func load(scale float64, seed int64) []harness.Experiment {
	e := run("load-ladder", overloadConfig(seed), scaled(scale, time.Second), scaled(scale, 3*time.Second))
	e.Measure.Rates = ratesAt(satLoad, 0.25, 0.50, 0.75, 0.95, 1.25, 4.00)
	e.Measure.Clients = []harness.ClientSpec{
		kvClients(9),
		{Count: 1, Workload: &workload.Spec{Kind: workload.KindKVBank, Accounts: 512}},
	}
	return []harness.Experiment{e}
}

// stages decomposes commit latency across a rate ladder: the Result's
// stage digests say where a committed block's life goes (verify, vote,
// qc, commit, execute) as load rises, and its proposer shares and Gini
// whether leader rotation spread the committed chain.
func stages(scale float64, seed int64) []harness.Experiment {
	e := run("stages", overloadConfig(seed), scaled(scale, time.Second), scaled(scale, 3*time.Second))
	e.Measure.Rates = ratesAt(satStages, 0.25, 0.50, 0.75, 0.95)
	e.Measure.Clients = []harness.ClientSpec{kvClients(8)}
	return []harness.Experiment{e}
}

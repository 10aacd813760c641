// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI) on the in-process substrate: Table II and
// Figures 8 through 15, plus ablation studies of the design choices
// DESIGN.md calls out. Each experiment prints rows/series in the shape
// the paper reports so results can be compared side by side; absolute
// numbers differ from the paper's testbed (single machine vs one VM
// per replica), but the comparative shapes are the reproduction target.
//
// All experiments accept a Scale factor: 1.0 runs paper-like
// durations, smaller values shrink warmup/measurement windows
// proportionally for quick runs (the go test benches default to the
// BAMBOO_BENCH_SCALE environment variable, or 0.15).
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/harness"
	"github.com/bamboo-bft/bamboo/internal/model"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Runner executes experiments and writes human-readable rows. Every
// measurement goes through the harness (harness.Run), and the
// structured results accumulate for machine-readable export
// (TakeResults, the -json flag of cmd/bamboo-bench).
type Runner struct {
	// Out receives the result rows.
	Out io.Writer
	// Scale multiplies every warmup/measurement duration; 1.0
	// reproduces paper-like run lengths.
	Scale float64
	// Seed drives workload and key randomness.
	Seed int64
	// Ns overrides the scalability experiment's cluster sizes
	// (default 4, 8, 16, 32, 64).
	Ns []int
	// ByzLevels overrides the attack experiments' Byzantine counts
	// (default 0, 2, 4, 6, 8, 10).
	ByzLevels []int
	// Levels overrides the closed-loop concurrency ladder.
	Levels []int
	// Backend deploys every experiment over the named transport
	// backend ("" keeps the harness default, the in-process switch;
	// "tcp" uses loopback sockets).
	Backend string

	// results accumulates the structured outcome of every harness
	// run since the last TakeResults call.
	results []*harness.Result
}

func (r *Runner) ns() []int {
	if len(r.Ns) > 0 {
		return r.Ns
	}
	return []int{4, 8, 16, 32, 64}
}

func (r *Runner) byzLevels() []int {
	if len(r.ByzLevels) > 0 {
		return r.ByzLevels
	}
	return []int{0, 2, 4, 6, 8, 10}
}

func (r *Runner) levels() []int {
	if len(r.Levels) > 0 {
		return r.Levels
	}
	return []int{2, 8, 32, 128, 512}
}

// NewRunner creates a runner with sane defaults.
func NewRunner(out io.Writer, scale float64, seed int64) *Runner {
	if scale <= 0 {
		scale = 1
	}
	if seed == 0 {
		seed = 1
	}
	return &Runner{Out: out, Scale: scale, Seed: seed}
}

// scaled shrinks a duration by the run scale, with a floor that keeps
// measurements meaningful.
func (r *Runner) scaled(d time.Duration) time.Duration {
	s := time.Duration(float64(d) * r.Scale)
	if s < 150*time.Millisecond {
		s = 150 * time.Millisecond
	}
	return s
}

// printf writes one output row.
func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.Out, format, args...)
}

// substrate returns the baseline configuration of the single-machine
// substrate: 4 replicas, HMAC authentication (see DESIGN.md §4),
// 200µs ± 50µs link delay (the <1ms same-datacenter profile of the
// paper's testbed), and 1 Gbps modeled NIC bandwidth.
func (r *Runner) substrate() config.Config {
	cfg := config.Default()
	cfg.CryptoScheme = "hmac"
	cfg.Seed = r.Seed
	cfg.Delay = 200 * time.Microsecond
	cfg.DelayStd = 50 * time.Microsecond
	cfg.Bandwidth = 1.25e8 // 1 Gbps in bytes/s
	cfg.Timeout = 100 * time.Millisecond
	cfg.MaxNetworkDelay = 5 * time.Millisecond
	cfg.MemSize = 1 << 17
	return cfg
}

// Point is one measured datum of a throughput/latency experiment —
// the harness's structured point.
type Point = harness.Point

// measureOpt tunes a measurement run beyond the cluster config.
type measureOpt struct {
	// fanout broadcasts each client transaction to every replica.
	fanout bool
	// stores attaches a kvstore execution layer to every replica so
	// the apply stage has real work.
	stores bool
	// election selects the leader-election design ("" keeps the
	// configuration default).
	election string
}

// record accumulates a harness result for TakeResults.
func (r *Runner) record(res *harness.Result) {
	if res != nil {
		r.results = append(r.results, res)
	}
}

// TakeResults returns every structured result collected since the
// last call and resets the collector — cmd/bamboo-bench drains it
// after each experiment to write the -json files.
func (r *Runner) TakeResults() []*harness.Result {
	out := r.results
	r.results = nil
	return out
}

// experiment assembles the harness declaration shared by every bench
// measurement.
func (r *Runner) experiment(cfg config.Config, warm, window time.Duration, opt measureOpt) harness.Experiment {
	return harness.Experiment{
		Config:  cfg,
		Backend: r.Backend,
		Measure: harness.MeasurePlan{
			Warmup:     warm,
			Window:     window,
			Fanout:     opt.fanout,
			WithStores: opt.stores,
		},
		Election: opt.election,
	}
}

// measure runs one experiment point. If rate > 0 an open-loop Poisson
// client drives the cluster at that rate; otherwise `concurrency`
// closed-loop workers do.
func (r *Runner) measure(cfg config.Config, concurrency int, rate float64,
	warm, window time.Duration) (Point, error) {
	return r.measureWith(cfg, concurrency, rate, warm, window, measureOpt{})
}

// measureWith is measure with per-run options, expressed as a
// single-point harness experiment.
func (r *Runner) measureWith(cfg config.Config, concurrency int, rate float64,
	warm, window time.Duration, opt measureOpt) (Point, error) {

	exp := r.experiment(cfg, warm, window, opt)
	exp.Measure.Concurrency = concurrency
	exp.Measure.Rate = rate
	res, err := harness.Run(exp)
	r.record(res)
	if err != nil {
		return Point{}, err
	}
	return res.Points[0], nil
}

// sweepClosed raises closed-loop concurrency until throughput stops
// improving (the paper's "increase concurrency until saturated"),
// returning all measured points.
func (r *Runner) sweepClosed(cfg config.Config, levels []int, warm, window time.Duration) ([]Point, error) {
	exp := r.experiment(cfg, warm, window, measureOpt{})
	exp.Measure.Levels = levels
	exp.Measure.SaturationStop = true
	res, err := harness.Run(exp)
	r.record(res)
	return res.Points, err
}

// calibrate measures the saturated closed-loop throughput of a
// configuration — used to place open-loop rates for Table II/Figure 8.
// The worker count must outrun the bandwidth-delay product: at commit
// latencies around 10 ms, a thousand in-flight requests are needed to
// expose six-figure Tx/s capacity.
func (r *Runner) calibrate(cfg config.Config) (float64, error) {
	p, err := r.measure(cfg, 1024, 0, r.scaled(time.Second), r.scaled(2*time.Second))
	if err != nil {
		return 0, err
	}
	return p.Throughput, nil
}

// MeasureTCPU estimates the model's t_CPU on this machine for a
// scheme: the mean cost of one signature operation pair (sign+verify
// averaged), which is what the paper's constant CPU term captures.
func MeasureTCPU(schemeName string) (time.Duration, error) {
	s, err := crypto.NewScheme(schemeName, 4, 1)
	if err != nil {
		return 0, err
	}
	digest := make([]byte, 32)
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		sig, err := s.Sign(1, digest)
		if err != nil {
			return 0, err
		}
		if err := s.Verify(1, digest, sig); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / (2 * iters), nil
}

// MeasureLinkDelay measures the substrate's *effective* one-way
// message delay under the configuration's network conditions — what
// the paper means by "µ and σ can be determined via measurement". On a
// busy host the effective delay exceeds the configured distribution
// (timer granularity, scheduler hops), and feeding the measured values
// to the model is what makes the Figure 8 comparison honest.
func MeasureLinkDelay(cfg config.Config) (mu, sigma time.Duration, err error) {
	cond := network.NewConditions(cfg.Seed)
	cond.SetBaseDelay(cfg.Delay, cfg.DelayStd)
	sw := network.NewSwitch(cond)
	a, err := sw.Join(1)
	if err != nil {
		return 0, 0, err
	}
	b, err := sw.Join(2)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	const pings = 200
	samples := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		start := time.Now()
		a.Send(2, types.QueryMsg{Height: uint64(i)})
		select {
		case <-b.Inbox():
			samples = append(samples, float64(time.Since(start)))
		case <-time.After(time.Second):
			return 0, 0, fmt.Errorf("bench: link-delay probe lost")
		}
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	var varsum float64
	for _, s := range samples {
		varsum += (s - mean) * (s - mean)
	}
	std := math.Sqrt(varsum / float64(len(samples)))
	return time.Duration(mean), time.Duration(std), nil
}

// modelParams assembles Section V parameters matching a substrate
// configuration, with µ/σ and t_CPU measured on this host rather than
// assumed.
func (r *Runner) modelParams(cfg config.Config) (model.Params, error) {
	tcpu, err := MeasureTCPU(cfg.CryptoScheme)
	if err != nil {
		return model.Params{}, err
	}
	mu, sigma, err := MeasureLinkDelay(cfg)
	if err != nil {
		return model.Params{}, err
	}
	txBytes := float64(24 + cfg.PayloadSize)
	return model.Params{
		N:          cfg.N,
		BlockSize:  cfg.BlockSize,
		Mu:         mu,
		Sigma:      sigma,
		TCPU:       tcpu,
		BlockBytes: float64(cfg.BlockSize) * txBytes,
		Bandwidth:  cfg.Bandwidth,
	}, nil
}

// fmtMS renders a duration in milliseconds with two decimals.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// fmtKTx renders a rate in thousands of transactions per second.
func fmtKTx(rate float64) string {
	return fmt.Sprintf("%.1f", rate/1000)
}

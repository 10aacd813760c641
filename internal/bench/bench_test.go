package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
)

// tinyRunner runs experiments at the smallest useful scale so every
// figure runner is exercised in CI.
func tinyRunner() (*Runner, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewRunner(&buf, 0.01, 7), &buf
}

func TestMeasureClosedLoopProducesThroughput(t *testing.T) {
	r, _ := tinyRunner()
	cfg := r.substrate()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	p, err := r.measure(cfg, 16, 0, 200*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 {
		t.Fatalf("no throughput measured: %+v", p)
	}
	if p.Mean <= 0 {
		t.Fatalf("no latency measured: %+v", p)
	}
}

func TestMeasureOpenLoopTracksRate(t *testing.T) {
	r, _ := tinyRunner()
	cfg := r.substrate()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	// A modest rate well below saturation: committed ≈ offered.
	const rate = 2000.0
	p, err := r.measure(cfg, 0, rate, 400*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput < 0.7*rate || p.Throughput > 1.3*rate {
		t.Fatalf("open-loop throughput %.0f far from offered %.0f", p.Throughput, rate)
	}
}

func TestMeasureTCPU(t *testing.T) {
	ed, err := MeasureTCPU("ed25519")
	if err != nil {
		t.Fatal(err)
	}
	hm, err := MeasureTCPU("hmac")
	if err != nil {
		t.Fatal(err)
	}
	if ed <= hm {
		t.Fatalf("ed25519 t_CPU (%v) should exceed hmac (%v)", ed, hm)
	}
	if _, err := MeasureTCPU("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSweepClosedStopsPastSaturation(t *testing.T) {
	r, _ := tinyRunner()
	cfg := r.substrate()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	pts, err := r.sweepClosed(cfg, []int{1, 4, 16}, 150*time.Millisecond, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("sweep returned no points")
	}
	// Throughput should increase from concurrency 1 to 16 on an
	// unsaturated substrate.
	if pts[len(pts)-1].Throughput <= pts[0].Throughput {
		t.Logf("warning: sweep non-monotone: %+v", pts)
	}
}

// TestFigureRunnersSmoke executes every table/figure runner at tiny
// scale and sanity-checks the emitted rows. This is the CI guard that
// the full benchmark suite cannot bit-rot.
func TestFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke skipped in -short")
	}
	cases := []struct {
		name    string
		run     func(*Runner) error
		markers []string
	}{
		{"table2", (*Runner).RunTable2, []string{"Table II", "Match"}},
		{"fig12", (*Runner).RunFigure12, []string{"scalability", "n=4", "n=8"}},
		{"fig13", (*Runner).RunFigure13, []string{"forking", "CGR"}},
		{"fig14", (*Runner).RunFigure14, []string{"silence", "BI"}},
		{"ablation-crypto", (*Runner).RunAblationCrypto, []string{"ed25519", "noop"}},
		{"ablation-routing", (*Runner).RunAblationVoteBroadcast, []string{"msgs/block"}},
		{"ablation-fanout", (*Runner).RunAblationClientFanout, []string{"single", "broadcast"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r, buf := tinyRunner()
			r.Ns = []int{4, 8}
			r.ByzLevels = []int{0, 2}
			r.Levels = []int{4, 16}
			if err := tc.run(r); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, m := range tc.markers {
				if !strings.Contains(out, m) {
					t.Fatalf("output missing %q:\n%s", m, out)
				}
			}
		})
	}
}

// TestFigure15Smoke runs one shrunken responsiveness timeline.
func TestFigure15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke skipped in -short")
	}
	r, _ := tinyRunner()
	series, err := r.runResponsivenessRun(config.ProtocolHotStuff,
		20*time.Millisecond, true,
		300*time.Millisecond, 500*time.Millisecond, 700*time.Millisecond,
		100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 10 {
		t.Fatalf("series too short: %d buckets", len(series))
	}
	// Committed throughput must be nonzero before the fluctuation.
	var preSum float64
	for _, v := range series[:3] {
		preSum += v
	}
	if preSum == 0 {
		t.Fatal("no commits before fluctuation")
	}
}

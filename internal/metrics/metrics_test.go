package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	s := l.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestLatencyMeanMax(t *testing.T) {
	var l Latency
	for _, d := range []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
	} {
		l.Record(d)
	}
	s := l.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mean != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", s.Mean)
	}
	if s.Max != 3*time.Millisecond {
		t.Fatalf("max = %v, want 3ms", s.Max)
	}
}

func TestLatencyQuantileAccuracy(t *testing.T) {
	var l Latency
	// 1000 samples uniform 1..1000 ms: P50 ≈ 500ms, P99 ≈ 990ms.
	for i := 1; i <= 1000; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	s := l.Snapshot()
	within := func(got, want time.Duration, tol float64) bool {
		return math.Abs(float64(got)-float64(want)) <= tol*float64(want)
	}
	if !within(s.P50, 500*time.Millisecond, 0.15) {
		t.Errorf("P50 = %v, want ≈500ms", s.P50)
	}
	if !within(s.P99, 990*time.Millisecond, 0.15) {
		t.Errorf("P99 = %v, want ≈990ms", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
}

func TestLatencyReset(t *testing.T) {
	var l Latency
	l.Record(time.Second)
	l.Reset()
	if s := l.Snapshot(); s.Count != 0 || s.Max != 0 {
		t.Fatalf("reset did not clear: %+v", s)
	}
}

func TestLatencyConcurrent(t *testing.T) {
	var l Latency
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s := l.Snapshot(); s.Count != 8000 {
		t.Fatalf("lost records under concurrency: %d", s.Count)
	}
}

func TestLatencyExtremes(t *testing.T) {
	var l Latency
	l.Record(-time.Second) // negative clamps to first bucket
	l.Record(time.Nanosecond)
	l.Record(24 * time.Hour) // beyond last bucket clamps
	if s := l.Snapshot(); s.Count != 3 {
		t.Fatalf("extreme values dropped: %+v", s)
	}
}

// Property: bucketIndex is monotone non-decreasing in duration.
func TestBucketIndexMonotoneQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		da, db := time.Duration(a)*time.Microsecond, time.Duration(b)*time.Microsecond
		if da > db {
			da, db = db, da
		}
		return bucketIndex(da) <= bucketIndex(db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

// newTracker builds a chain tracker over fresh handles with a cohort of
// n proposers.
func newTracker(n int) *ChainTracker {
	ct := &ChainTracker{Added: new(Counter), Views: new(Counter), Committed: new(Counter), TxCommitted: new(Counter)}
	for i := 0; i < n; i++ {
		ct.Proposers = append(ct.Proposers, new(Counter))
	}
	for i := range ct.Stages {
		ct.Stages[i] = new(Latency)
	}
	return ct
}

func TestChainTrackerCGRAndBI(t *testing.T) {
	ct := newTracker(1)
	// 10 blocks added; 8 commit; each commits 3 views after proposal
	// (HotStuff's happy-path three-chain) carrying 400 txs.
	ct.Added.Add(10)
	for v := 1; v <= 8; v++ {
		ct.OnBlockCommitted(1, types.View(v), types.View(v+3), 400)
	}
	s := ct.Snapshot()
	if s.BlocksAdded != 10 || s.BlocksCommitted != 8 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if math.Abs(s.CGR-0.8) > 1e-9 {
		t.Fatalf("CGR = %f, want 0.8", s.CGR)
	}
	if math.Abs(s.BI-3.0) > 1e-9 {
		t.Fatalf("BI = %f, want 3.0", s.BI)
	}
	if s.TxCommitted != 8*400 {
		t.Fatalf("txs = %d", s.TxCommitted)
	}
}

func TestChainTrackerEmpty(t *testing.T) {
	ct := newTracker(0)
	s := ct.Snapshot()
	if s.CGR != 0 || s.BI != 0 {
		t.Fatalf("empty tracker must report zeros: %+v", s)
	}
}

func TestChainTrackerNonMonotoneCommitView(t *testing.T) {
	ct := newTracker(1)
	ct.Added.Add(1)
	// commitView < proposeView must not underflow the BI sum.
	ct.OnBlockCommitted(1, 9, 5, 1)
	if s := ct.Snapshot(); s.BI != 0 {
		t.Fatalf("BI = %f, want 0 for clamped negative interval", s.BI)
	}
}

// TestLatencyNearestRank pins the quantile rule to the benchmark's
// exact one: the sample at nearest rank ceil(q·n), reported as its
// bucket's upper bound, so within one bucket growth factor above it.
func TestLatencyNearestRank(t *testing.T) {
	ms := time.Millisecond
	tail := make([]time.Duration, 99, 100)
	for i := range tail {
		tail[i] = ms
	}
	tail = append(tail, time.Second)
	for _, c := range []struct {
		name    string
		samples []time.Duration
		q       func(LatencySummary) time.Duration
		want    time.Duration
	}{
		{"p50 of 1,10,100ms", []time.Duration{ms, 10 * ms, 100 * ms}, func(s LatencySummary) time.Duration { return s.P50 }, 10 * ms},
		{"p99 of 1,10,100ms", []time.Duration{ms, 10 * ms, 100 * ms}, func(s LatencySummary) time.Duration { return s.P99 }, 100 * ms},
		{"p999 of 99x1ms+1s", tail, func(s LatencySummary) time.Duration { return s.P999 }, time.Second},
	} {
		var l Latency
		for _, d := range c.samples {
			l.Record(d)
		}
		if got := c.q(l.Snapshot()); got < c.want || float64(got) > 1.25*float64(c.want) {
			t.Errorf("%s = %v, want the nearest-rank sample %v", c.name, got, c.want)
		}
	}
}

// TestLatencyMergeMatchesExactQuantiles drives two histograms with a
// log-uniform sample spread (the shape commit latencies take under
// load), merges them, and checks every reported quantile against the
// exact sorted-sample quantile. The geometric buckets grow by ×1.25,
// so a reported value may sit up to one growth factor above the exact
// one — and never below it, since quantiles report bucket upper bounds
// (clamped to the observed max).
func TestLatencyMergeMatchesExactQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := &Latency{}, &Latency{}
	const n = 20000
	all := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		// Log-uniform over 10µs .. 1s: five decades, like a latency
		// distribution with a long tail.
		d := time.Duration(float64(10*time.Microsecond) * math.Pow(1e5, rng.Float64()))
		all = append(all, d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	merged := &Latency{}
	merged.Merge(a)
	merged.Merge(b)
	s := merged.Snapshot()
	if s.Count != n {
		t.Fatalf("merged count = %d, want %d", s.Count, n)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	exact := func(q float64) time.Duration {
		return all[int(q*float64(n-1))]
	}
	for _, c := range []struct {
		name string
		got  time.Duration
		q    float64
	}{
		{"p50", s.P50, 0.50}, {"p95", s.P95, 0.95},
		{"p99", s.P99, 0.99}, {"p999", s.P999, 0.999},
	} {
		want := exact(c.q)
		ratio := float64(c.got) / float64(want)
		if ratio < 1.0/1.25 || ratio > 1.25 {
			t.Errorf("%s = %v, exact %v (ratio %.3f outside one bucket growth factor)",
				c.name, c.got, want, ratio)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
		t.Errorf("merged quantiles not monotone: %v %v %v %v max %v",
			s.P50, s.P95, s.P99, s.P999, s.Max)
	}
}

package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// numSlices is how many equal slices the measured window is cut into.
// Every gated metric is the median of its per-slice values, so one
// host stall (a GC pause, a noisy neighbour) owns one slice, not the
// run's tail.
const numSlices = 10

// quantile returns the exact nearest-rank q-quantile of an ascending
// sample: the smallest value with at least q·n samples at or below
// it. No interpolation, no buckets.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supported reports whether a sample of n supports quantile q: at
// least ten samples must lie beyond it, or the figure is one host
// hiccup, not a tail.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// median returns the median of vs (mean of the middle two for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// recorder files every finished operation into the window slice its
// completion time falls in. Operations finishing outside the window
// (warm-up, or in flight when the window closes) are dropped: they
// are neither attempted nor failed.
type recorder struct {
	start    time.Time
	sliceLen time.Duration

	mu     sync.Mutex
	lat    [numSlices][]int64 // successful-op latencies, ns
	failed [numSlices]int
}

func newRecorder(start time.Time, window time.Duration) *recorder {
	return &recorder{start: start, sliceLen: window / numSlices}
}

// add records one operation that finished at done after lat.
func (r *recorder) add(done time.Time, lat time.Duration, ok bool) {
	off := done.Sub(r.start)
	if off < 0 {
		return
	}
	i := int(off / r.sliceLen)
	if i >= numSlices {
		return
	}
	r.mu.Lock()
	if ok {
		r.lat[i] = append(r.lat[i], int64(lat))
	} else {
		r.failed[i]++
	}
	r.mu.Unlock()
}

// quantileReport is one line of the whole-window latency digest printed
// beside the gated metrics: exact, with Supported false where fewer than
// ten samples lie beyond it.
type quantileReport struct {
	Q         string  `json:"q"`
	Ms        float64 `json:"ms"`
	Supported bool    `json:"supported"`
}

// summary is what one measured window reduces to.
type summary struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Per-slice values, in window order.
	SliceTPS   []float64 `json:"slice_tps"`
	SliceP50Ms []float64 `json:"slice_p50_ms"`
	SliceP99Ms []float64 `json:"slice_p99_ms"`
	SliceN     []int     `json:"slice_samples"`
	SliceFail  []int     `json:"slice_failed"`
	// The gated figures: medians over the slices.
	TPS   float64 `json:"commit_tps"`
	P50Ms float64 `json:"commit_p50_ms"`
	P99Ms float64 `json:"commit_p99_ms"`
	// Whole-window exact quantiles over all successful operations.
	Window []quantileReport `json:"window_quantiles"`
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// summarize reduces the recorded window. It sorts the recorder's
// slices in place; call it once, after the load has stopped.
func (r *recorder) summarize() summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s summary
	var all []int64
	for i := range r.lat {
		l := r.lat[i]
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		s.Attempted += len(l) + r.failed[i]
		s.Failed += r.failed[i]
		s.SliceN = append(s.SliceN, len(l))
		s.SliceFail = append(s.SliceFail, r.failed[i])
		s.SliceTPS = append(s.SliceTPS, float64(len(l))/r.sliceLen.Seconds())
		s.SliceP50Ms = append(s.SliceP50Ms, ms(quantile(l, 0.50)))
		s.SliceP99Ms = append(s.SliceP99Ms, ms(quantile(l, 0.99)))
		all = append(all, l...)
	}
	s.TPS = median(s.SliceTPS)
	s.P50Ms = median(s.SliceP50Ms)
	s.P99Ms = median(s.SliceP99Ms)
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}} {
		s.Window = append(s.Window, quantileReport{
			Q: q.name, Ms: ms(quantile(all, q.q)), Supported: supported(len(all), q.q)})
	}
	return s
}

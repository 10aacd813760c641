package workload

import (
	"math"
	"math/rand"
	"time"
)

// paceTick is the batching interval of the open-loop pacer.
const paceTick = 2 * time.Millisecond

// Pace runs an open-loop Poisson arrival process at rate arrivals per
// second until stop closes — the arrival model of the Section V
// analysis, shared by every backend's open loop. Arrivals are generated
// in 2 ms batches with Poisson-distributed counts (statistically
// equivalent, and feasible at 100k+ tx/s on small hosts). draw samples
// each batch's count for a given mean; arrive is called once per
// arrival with its intended time. The mean is scaled to the *actual*
// elapsed time: under CPU contention the ticker coalesces missed ticks,
// and a fixed per-tick mean would silently shed offered load.
// Conditioned on n arrivals, Poisson arrival times are uniform order
// statistics over the window, so the i-th is intended mid-slot, at
// (i+0.5)/n of it. Stamping latency from that time rather than the
// actual send makes a pacer running late show the lag as latency
// instead of silently omitting it (coordinated omission).
func Pace(stop <-chan struct{}, rate float64, draw func(mean float64) int, arrive func(intended time.Time)) {
	ticker := time.NewTicker(paceTick)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		window := now.Sub(last)
		n := draw(rate * window.Seconds())
		for i := 0; i < n; i++ {
			arrive(last.Add(time.Duration((float64(i) + 0.5) / float64(n) * float64(window))))
		}
		last = now
	}
}

// Poisson samples a Poisson-distributed count with the given mean:
// Knuth's method for small means, a normal approximation for large.
// A non-positive mean yields zero.
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for p > l {
			k++
			p *= rng.Float64()
		}
		return k - 1
	}
	n := int(rng.NormFloat64()*math.Sqrt(mean) + mean + 0.5)
	if n < 0 {
		return 0
	}
	return n
}

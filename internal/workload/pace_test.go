package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mean := range []float64{0.5, 5, 50, 200} {
		const draws = 3000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(Poisson(rng, mean))
		}
		got := sum / draws
		if got < 0.85*mean || got > 1.15*mean {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Fatal("non-positive mean must yield zero")
	}
}

// TestPaceIntendedTimesInOrder: every arrival is intended inside the
// pacing run and no earlier than the one before it, and the count
// tracks the declared rate over the real elapsed time.
func TestPaceIntendedTimesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stop := make(chan struct{})
	done := make(chan struct{})
	var times []time.Time
	begin := time.Now()
	go func() {
		defer close(done)
		Pace(stop, 20000, func(mean float64) int { return Poisson(rng, mean) },
			func(intended time.Time) { times = append(times, intended) })
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	<-done
	elapsed := time.Since(begin)
	want := 20000 * elapsed.Seconds()
	if got := float64(len(times)); got < 0.7*want || got > 1.1*want {
		t.Fatalf("%v arrivals over %v, want about %.0f", got, elapsed, want)
	}
	for i, at := range times {
		if at.Before(begin) || at.After(begin.Add(elapsed)) {
			t.Fatalf("arrival %d intended at %v, outside the run", i, at.Sub(begin))
		}
		if i > 0 && at.Before(times[i-1]) {
			t.Fatalf("arrival %d intended before arrival %d", i, i-1)
		}
	}
}

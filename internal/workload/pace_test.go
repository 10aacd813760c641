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
// pacing run and no earlier than the one before it, the count offered
// tracks the declared rate over the real elapsed time, and a pacer that
// keeps up sheds next to nothing.
func TestPaceIntendedTimesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stop := make(chan struct{})
	done := make(chan struct{})
	var times []time.Time
	var shed int
	begin := time.Now()
	go func() {
		defer close(done)
		Pace(stop, 20000, func(mean float64) int { return Poisson(rng, mean) },
			func(intended time.Time) { times = append(times, intended) },
			func(n int) { shed += n })
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	<-done
	elapsed := time.Since(begin)
	want := 20000 * elapsed.Seconds()
	if got := float64(len(times)); got < 0.7*want || got > 1.1*want {
		t.Fatalf("%v arrivals over %v, want about %.0f", got, elapsed, want)
	}
	if float64(shed) > 0.05*want {
		t.Fatalf("shed %d of about %.0f arrivals", shed, want)
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

// TestPaceSlowArriveStopsAndSheds: at 100k/s with an arrive far slower
// than the rate, Pace neither builds an ever larger batch nor finishes
// one after stop: once it has shed arrivals it could not offer, it
// returns within 50 ms of stop.
func TestPaceSlowArriveStopsAndSheds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stop := make(chan struct{})
	done := make(chan struct{})
	shedding := make(chan int, 1)
	go func() {
		defer close(done)
		Pace(stop, 100000, func(mean float64) int { return Poisson(rng, mean) },
			func(time.Time) { time.Sleep(time.Millisecond) },
			func(n int) {
				select {
				case shedding <- n:
				default:
				}
			})
	}()
	// The first batch holds about 200 arrivals, 200 ms of sleeps at
	// least, so the window after it is past paceMaxLag.
	select {
	case n := <-shedding:
		if n <= 0 {
			t.Fatalf("shed %d arrivals", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nothing shed in 10 s")
	}
	stopped := time.Now()
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Pace still running 5 s after stop")
	}
	if took := time.Since(stopped); took > 50*time.Millisecond {
		t.Fatalf("Pace returned %v after stop, want within 50ms", took)
	}
}

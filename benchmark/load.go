package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout bounds every operation. A timeout, a final pool rejection
// and a shed arrival are all failures and miss every latency limit.
const opTimeout = 2 * time.Second

// maxInFlight caps the open loop's outstanding operations. An arrival
// over the cap is shed (counted failed) instead of queued without
// bound: a backlog that deep already means the rate is not served.
const maxInFlight = 4096

// submitFunc issues one operation and reports whether it committed
// (client.Client.SubmitAndWait, or a fake in tests).
type submitFunc func(timeout time.Duration) bool

// closedLoop keeps n operations in flight until stop closes, timing
// each SubmitAndWait call itself. It returns once every worker has.
func closedLoop(n int, submit submitFunc, rec *recorder, stop <-chan struct{}) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				ok := submit(opTimeout)
				done := time.Now()
				rec.add(done, done.Sub(t0), ok)
			}
		}()
	}
	wg.Wait()
}

// clock is the pacer's view of time, so tests can drive it with a
// fake that oversleeps on demand.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is the open loop's arrival plan: arrival i is due at
// start + phase + i·gap. The gap is fixed by the rate; the seed picks
// the phase within one gap, so equal seeds give identical due times.
type schedule struct {
	phase, gap time.Duration
}

func newSchedule(rate float64, seed int64) schedule {
	gap := time.Duration(float64(time.Second) / rate)
	return schedule{phase: time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(gap))), gap: gap}
}

func (s schedule) due(start time.Time, i int) time.Time {
	return start.Add(s.phase + time.Duration(i)*s.gap)
}

// pace fires arrivals on the schedule until stop closes, and returns
// how late each one fired (ns, in firing order). It never skips an
// arrival: after a late wake-up every overdue arrival fires at once,
// each still stamped with its own due time, so a generator stall shows
// up as latency on the requests it delayed instead of vanishing.
func pace(clk clock, start time.Time, s schedule, stop <-chan struct{}, fire func(due time.Time)) []int64 {
	var lags []int64
	for i := 0; ; i++ {
		due := s.due(start, i)
		now := clk.Now()
		if d := due.Sub(now); d > 0 {
			clk.Sleep(d)
			now = clk.Now()
		}
		select {
		case <-stop:
			return lags
		default:
		}
		lags = append(lags, int64(now.Sub(due)))
		fire(due)
	}
}

// openLoop drives submit on the schedule until stop closes, then
// waits for the operations still in flight. Latency runs from each
// arrival's due time. It returns the pacer's lags and the number of
// arrivals fired inside the recorder's window.
func openLoop(clk clock, start time.Time, s schedule, submit submitFunc,
	rec *recorder, stop <-chan struct{}) (lags []int64, fired int) {

	var wg sync.WaitGroup
	var inFlight atomic.Int64
	windowEnd := rec.start.Add(numSlices * rec.sliceLen)
	lags = pace(clk, start, s, stop, func(due time.Time) {
		if !due.Before(rec.start) && due.Before(windowEnd) {
			fired++
		}
		if inFlight.Load() >= maxInFlight {
			rec.add(clk.Now(), 0, false)
			return
		}
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := submit(opTimeout)
			done := clk.Now()
			rec.add(done, done.Sub(due), ok)
			inFlight.Add(-1)
		}()
	})
	wg.Wait()
	return lags, fired
}

// lagReport digests the pacer's lateness: how far behind its schedule
// the generator itself ran (gen_lag_ms), the number every open-loop
// latency must be read against.
func lagReport(lags []int64) (p99Ms, maxMs float64) {
	if len(lags) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), lags...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return ms(quantile(s, 0.99)), ms(s[len(s)-1])
}

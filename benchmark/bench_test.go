package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64{7, 9}, 0.5); got != 7 {
		t.Errorf("median of two = %d, want the lower (nearest rank), 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %d, want 0", got)
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true}, {9999, 0.999, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// A stall confined to one slice must not move a run's gated figures:
// that is what the slice medians are for.
func TestSliceMediansShrugOffOneStall(t *testing.T) {
	start := time.Unix(1000, 0)
	fill := func(stall bool) summary {
		rec := newRecorder(start, 10*time.Second)
		for sl := 0; sl < numSlices; sl++ {
			for i := 0; i < 1000; i++ {
				lat := time.Duration(10+i%10) * time.Millisecond
				n := 1
				if stall && sl == 4 {
					lat, n = 900*time.Millisecond, i%2 // half the commits, all slow
				}
				for ; n > 0; n-- {
					rec.add(start.Add(time.Duration(sl)*time.Second+time.Duration(i)*time.Millisecond), lat, true)
				}
			}
		}
		rec.add(start.Add(-time.Millisecond), time.Hour, true) // warm-up: dropped
		rec.add(start.Add(10*time.Second), time.Hour, false)   // past the window: dropped
		rec.add(start.Add(500*time.Millisecond), 0, false)     // one failure, slice 0
		return rec.summarize()
	}
	calm, stalled := fill(false), fill(true)
	if calm.TPS != 1000 || calm.P50Ms != 14 || calm.P99Ms != 19 {
		t.Fatalf("calm run: tps %v p50 %v p99 %v, want 1000 14 19", calm.TPS, calm.P50Ms, calm.P99Ms)
	}
	if stalled.TPS != calm.TPS || stalled.P50Ms != calm.P50Ms || stalled.P99Ms != calm.P99Ms {
		t.Errorf("stall moved the slice medians: %+v vs %+v", stalled, calm)
	}
	if stalled.SliceP99Ms[4] != 900 || stalled.SliceTPS[4] != 500 {
		t.Errorf("stalled slice reads p99 %v tps %v, want 900 500", stalled.SliceP99Ms[4], stalled.SliceTPS[4])
	}
	if got := stalled.Window[2]; got.Q != "p99" || got.Ms != 900 || !got.Supported {
		t.Errorf("whole-window p99 = %+v, want the stall (900 ms) visible there", got)
	}
	if calm.Attempted != 10001 || calm.Failed != 1 || calm.SliceFail[0] != 1 {
		t.Errorf("attempted %d failed %d, want 10001 and 1", calm.Attempted, calm.Failed)
	}
}

// fakeClock advances only when slept on, oversleeping where told to.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	sleeps    int
	oversleep map[int]time.Duration // by Sleep call index
	stopAt    time.Time
	stop      chan struct{}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d + c.oversleep[c.sleeps])
	c.sleeps++
	if !c.now.Before(c.stopAt) && c.stop != nil {
		close(c.stop)
		c.stop = nil
	}
}

func TestPacerStampsDueTimesAndCatchesUp(t *testing.T) {
	start := time.Unix(2000, 0)
	stop := make(chan struct{})
	// The third sleep overshoots by 5 ms: arrivals 2..7 are all overdue
	// when it returns and must fire back to back, each with its own due.
	clk := &fakeClock{now: start, oversleep: map[int]time.Duration{2: 5 * time.Millisecond},
		stopAt: start.Add(10 * time.Millisecond), stop: stop}
	s := schedule{phase: 250 * time.Microsecond, gap: time.Millisecond}
	var dues, firedAt []time.Time
	lags := pace(clk, start, s, stop, func(due time.Time) {
		dues = append(dues, due)
		firedAt = append(firedAt, clk.Now())
	})
	if len(dues) != 10 {
		t.Fatalf("fired %d arrivals before the stop at 10 ms, want 10", len(dues))
	}
	for i, due := range dues {
		if want := start.Add(s.phase + time.Duration(i)*s.gap); !due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v: the schedule must not drift with lateness", i, due, want)
		}
	}
	wantLagMs := []int64{0, 0, 5, 4, 3, 2, 1, 0, 0, 0}
	for i, lag := range lags {
		if lag != wantLagMs[i]*int64(time.Millisecond) {
			t.Errorf("arrival %d lag %v, want %d ms", i, time.Duration(lag), wantLagMs[i])
		}
	}
	for i := 3; i <= 7; i++ {
		if !firedAt[i].Equal(firedAt[2]) {
			t.Errorf("overdue arrival %d fired at %v, want at once with arrival 2 (%v)", i, firedAt[i], firedAt[2])
		}
	}
	if p99, max := lagReport(lags); p99 != 5 || max != 5 {
		t.Errorf("gen_lag p99 %v max %v, want 5 5", p99, max)
	}
}

func TestOpenLoopShedsAtTheCapAndTimesFromDue(t *testing.T) {
	start := time.Unix(3000, 0)
	stop := make(chan struct{})
	const arrivals = maxInFlight + 4
	gap := time.Microsecond
	clk := &fakeClock{now: start, stopAt: start.Add(arrivals * gap), stop: stop}
	rec := newRecorder(start, time.Hour)
	release := make(chan struct{})
	var mu sync.Mutex
	submitted := 0
	submit := func(time.Duration) bool {
		mu.Lock()
		submitted++
		mu.Unlock()
		<-release
		return true
	}
	go func() { // let the blocked operations go once the pacer has stopped
		<-stop
		close(release)
	}()
	_, fired := openLoop(clk, start, schedule{gap: gap}, submit, rec, stop)
	sum := rec.summarize()
	if fired != arrivals || submitted != maxInFlight {
		t.Errorf("fired %d submitted %d, want %d and %d", fired, submitted, arrivals, maxInFlight)
	}
	if sum.Failed != 4 || sum.Attempted != arrivals {
		t.Errorf("failed %d of %d, want the 4 arrivals over the cap shed", sum.Failed, sum.Attempted)
	}
	// Every operation completed at the clock's final time, 4100 µs in,
	// and arrival i was due i µs in: latencies run 5..4100 µs, measured
	// from due and not from when the goroutine got to run. Nearest rank
	// 4092 of 4096 is 4096 µs.
	if got := sum.Window[3]; got.Q != "p999" || got.Ms != 4.096 {
		t.Errorf("p999 = %+v, want 4.096 ms", got)
	}
}

func TestEqualSeedsGiveIdenticalInputs(t *testing.T) {
	for _, w := range workloads {
		stream := func(seed int64) []byte {
			gen, err := w.Mix.New(w.Payload, seed)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			for i := 0; i < 500; i++ {
				b.Write(gen.Next())
			}
			return b.Bytes()
		}
		if !bytes.Equal(stream(7), stream(7)) {
			t.Errorf("%s: seed 7 gave two different transaction streams", w.Name)
		}
		if w.Mix.Stores() && bytes.Equal(stream(7), stream(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same transaction stream", w.Name)
		}
		if w.Rate > 0 {
			a, b := newSchedule(w.Rate, 7), newSchedule(w.Rate, 7)
			if a != b || a.gap != time.Duration(float64(time.Second)/w.Rate) || a.phase >= a.gap {
				t.Errorf("%s: schedules %+v and %+v, want equal with phase inside one gap", w.Name, a, b)
			}
			if newSchedule(w.Rate, 8) == a {
				t.Errorf("%s: seeds 7 and 8 gave the same arrival schedule", w.Name)
			}
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q / %q, program %q / %q", i, d.Name, d.Why, w.Name, w.Why)
		}
	}
	same := func(kind string, declared []jsonMetric, have []metricDef) {
		if len(declared) != len(have) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(declared), len(have))
		}
		for i, m := range have {
			if d := declared[i]; d != (jsonMetric{m.Name, m.Unit, m.Better, m.Bound}) {
				t.Errorf("%s metric %d: declared %+v, program %+v", kind, i, d, m)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

// The one test that runs the program: a one-second traced sat-noop,
// asserting only that every named metric comes out and the correctness
// checks pass — no timing assertion.
func TestSmokeEmitsEveryNamedMetric(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a loaded cluster; skipped under -short and -race")
	}
	w, _ := findWorkload("sat-noop")
	dir := t.TempDir()
	res, err := runWorkload(w, runOpts{Seed: 1, Warmup: 200 * time.Millisecond, Window: time.Second,
		Trace: true, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CheckErrors) != 0 {
		t.Errorf("correctness checks failed: %v", res.CheckErrors)
	}
	for _, m := range endToEnd {
		if res.endToEndValue(m.Name) <= 0 {
			t.Errorf("%s = %v, want a positive measurement", m.Name, res.endToEndValue(m.Name))
		}
	}
	for _, m := range perLayer {
		if _, ok := res.Layers[m.Name]; !ok {
			t.Errorf("per-layer metric %s not emitted", m.Name)
		}
	}
	if len(res.Layers) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d declared", len(res.Layers), len(perLayer))
	}
	var events []map[string]any
	data, err := os.ReadFile(dir + "/trace-sat-noop.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
		t.Errorf("trace file: %d events, err %v", len(events), err)
	}
}

package client

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// fakeReplica echoes commit replies for every request, optionally
// rejecting, after an artificial service delay (none: inline).
type fakeReplica struct {
	ep      network.Transport
	delay   time.Duration
	reject  bool
	mu      sync.Mutex
	seen    int
	stopCh  chan struct{}
	stopped sync.Once
}

func newFakeReplica(t testing.TB, sw *network.Switch, id types.NodeID, delay time.Duration, reject bool) *fakeReplica {
	t.Helper()
	ep, err := sw.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReplica{ep: ep, delay: delay, reject: reject, stopCh: make(chan struct{})}
	go f.run()
	t.Cleanup(f.stop)
	return f
}

func (f *fakeReplica) run() {
	for {
		select {
		case <-f.stopCh:
			return
		case env, ok := <-f.ep.Inbox():
			if !ok {
				return
			}
			req, isReq := env.Msg.(types.RequestMsg)
			if !isReq {
				continue
			}
			f.mu.Lock()
			f.seen++
			f.mu.Unlock()
			from := env.From
			if f.delay == 0 {
				f.ep.Send(from, types.ReplyMsg{TxID: req.Tx.ID, View: 1, Rejected: f.reject})
				continue
			}
			time.AfterFunc(f.delay, func() {
				f.ep.Send(from, types.ReplyMsg{TxID: req.Tx.ID, View: 1, Rejected: f.reject})
			})
		}
	}
}

func (f *fakeReplica) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

func (f *fakeReplica) stop() { f.stopped.Do(func() { close(f.stopCh) }) }

func newClient(t testing.TB, sw *network.Switch, n int) *Client {
	t.Helper()
	ep, err := sw.JoinClient(10001)
	if err != nil {
		t.Fatal(err)
	}
	c := New(ep, n, 64, 1)
	t.Cleanup(c.Stop)
	return c
}

func TestSubmitAndWaitCommit(t *testing.T) {
	sw := network.NewSwitch(nil)
	newFakeReplica(t, sw, 1, 5*time.Millisecond, false)
	c := newClient(t, sw, 1)
	if !c.SubmitAndWait(2 * time.Second) {
		t.Fatal("commit reply not received")
	}
	if c.Committed() != 1 {
		t.Fatalf("committed = %d", c.Committed())
	}
	s := c.Latency().Snapshot()
	if s.Count != 1 || s.Mean < 4*time.Millisecond {
		t.Fatalf("latency not recorded: %+v", s)
	}
}

func TestSubmitAndWaitRejection(t *testing.T) {
	sw := network.NewSwitch(nil)
	newFakeReplica(t, sw, 1, 0, true)
	c := newClient(t, sw, 1)
	if c.SubmitAndWait(2 * time.Second) {
		t.Fatal("rejected transaction reported as committed")
	}
	// A replica that always rejects exhausts the retry budget: the
	// initial attempt plus submitMaxRetries resubmissions, every one
	// rejected and counted.
	if got, want := c.Retries(), uint64(submitMaxRetries); got != want {
		t.Fatalf("retries = %d, want %d", got, want)
	}
	if got, want := c.Rejected(), uint64(submitMaxRetries+1); got != want {
		t.Fatalf("rejected = %d, want %d", got, want)
	}
}

func TestSubmitAndWaitTimeout(t *testing.T) {
	sw := network.NewSwitch(nil)
	newFakeReplica(t, sw, 1, time.Hour, false) // never answers in time
	c := newClient(t, sw, 1)
	start := time.Now()
	if c.SubmitAndWait(50 * time.Millisecond) {
		t.Fatal("timed-out transaction reported as committed")
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout not honoured")
	}
}

func TestClosedLoopKeepsOneInFlight(t *testing.T) {
	sw := network.NewSwitch(nil)
	replica := newFakeReplica(t, sw, 1, 2*time.Millisecond, false)
	c := newClient(t, sw, 1)
	c.RunClosedLoop(4, time.Second)
	time.Sleep(300 * time.Millisecond)
	c.Stop()
	committed := c.Committed()
	if committed < 50 {
		t.Fatalf("closed loop committed only %d", committed)
	}
	// With 4 workers and 2ms service, the replica cannot have seen
	// wildly more requests than replies — workers really wait.
	if int(committed) > replica.count() {
		t.Fatalf("committed %d > requests %d", committed, replica.count())
	}
}

func TestOpenLoopRateAndSampling(t *testing.T) {
	sw := network.NewSwitch(nil)
	replica := newFakeReplica(t, sw, 1, time.Millisecond, false)
	c := newClient(t, sw, 1)
	const rate = 3000.0
	c.RunOpenLoop(rate)
	time.Sleep(500 * time.Millisecond)
	c.Stop()
	seen := float64(replica.count())
	if seen < 0.6*rate*0.5 || seen > 1.4*rate*0.5 {
		t.Fatalf("open loop delivered %.0f requests in 0.5s at rate %.0f", seen, rate)
	}
	if c.Latency().Snapshot().Count == 0 {
		t.Fatal("latency sampling recorded nothing")
	}
}

func TestFanoutReachesAllReplicas(t *testing.T) {
	sw := network.NewSwitch(nil)
	replicas := []*fakeReplica{
		newFakeReplica(t, sw, 1, 0, false),
		newFakeReplica(t, sw, 2, 0, false),
		newFakeReplica(t, sw, 3, 0, false),
	}
	c := newClient(t, sw, 3)
	c.SetFanout(true)
	if !c.SubmitAndWait(2 * time.Second) {
		t.Fatal("fanout commit missing")
	}
	deadline := time.Now().Add(time.Second)
	for {
		total := 0
		for _, r := range replicas {
			total += r.count()
		}
		if total == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fanout reached %d replicas, want 3", total)
		}
		time.Sleep(time.Millisecond)
	}
	// Duplicate replies after the first are harmless.
	if c.Committed() != 1 {
		t.Fatalf("committed = %d, want exactly 1", c.Committed())
	}
}

func TestPoissonMean(t *testing.T) {
	sw := network.NewSwitch(nil)
	c := newClient(t, sw, 1)
	for _, mean := range []float64{0.5, 5, 50, 200} {
		const draws = 3000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(c.poisson(mean))
		}
		got := sum / draws
		if got < 0.85*mean || got > 1.15*mean {
			t.Fatalf("poisson(%v) sample mean = %v", mean, got)
		}
	}
	if c.poisson(0) != 0 || c.poisson(-1) != 0 {
		t.Fatal("non-positive mean must yield zero")
	}
}

func TestStopIsIdempotent(t *testing.T) {
	sw := network.NewSwitch(nil)
	c := newClient(t, sw, 1)
	c.Stop()
	c.Stop()
}

// TestStopReleasesBlockedSubmit: Stop resolves an operation that has no
// deadline and no reply coming, promptly.
func TestStopReleasesBlockedSubmit(t *testing.T) {
	sw := network.NewSwitch(nil)
	newFakeReplica(t, sw, 1, time.Hour, false) // never answers in time
	c := newClient(t, sw, 1)
	returned := make(chan bool)
	go func() { returned <- c.SubmitAndWait(0) }()
	time.Sleep(50 * time.Millisecond)
	stopped := time.Now()
	c.Stop()
	select {
	case ok := <-returned:
		if ok {
			t.Fatal("stopped operation reported as committed")
		}
		if d := time.Since(stopped); d > 100*time.Millisecond {
			t.Fatalf("SubmitAndWait returned %v after Stop", d)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("Stop did not release a blocked SubmitAndWait within 100ms")
	}
	if c.SubmitAndWait(time.Second) {
		t.Fatal("operation after Stop reported as committed")
	}
}

// TestReplySweepStopRace races the three ways a waiter resolves —
// reply, deadline sweep, Stop — over thousands of calls whose timeouts
// straddle the replica's service time. Every call must return exactly
// once, every true return must be one counted commit, no pooled waiter
// may hold a stale outcome, and no client goroutine may outlive Stop.
func TestReplySweepStopRace(t *testing.T) {
	sw := network.NewSwitch(nil)
	newFakeReplica(t, sw, 1, 4*time.Millisecond, false)
	c := newClient(t, sw, 1)
	const workers, calls = 16, 250
	var returns, commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < calls; i++ {
				// 1–20 ms against a 4 ms service time: some calls
				// commit, some expire with their reply still in
				// flight, and the reply then finds no waiter.
				if c.SubmitAndWait(time.Duration(1+rng.Intn(20)) * time.Millisecond) {
					commits.Add(1)
				}
				returns.Add(1)
			}
		}(int64(w))
	}
	// Stop while calls are in flight.
	for returns.Load() < workers*calls*3/4 {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d calls returned", returns.Load(), workers*calls)
	}
	if got := returns.Load(); got != workers*calls {
		t.Fatalf("%d returns for %d calls", got, workers*calls)
	}
	if got, want := c.Committed(), uint64(commits.Load()); got != want {
		t.Fatalf("Committed() = %d, true returns = %d", got, want)
	}
	if commits.Load() == 0 || commits.Load() == workers*calls {
		t.Fatalf("%d of %d calls committed: the timeouts did not straddle the service time",
			commits.Load(), workers*calls)
	}
	c.mu.Lock()
	left := len(c.waiters)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d waiters left registered after Stop", left)
	}
	for i := 0; i < 64; i++ {
		if ch := waiterChans.Get().(chan outcome); len(ch) != 0 {
			t.Fatal("a pooled waiter holds a stale outcome")
		}
	}
	if stacks := clientGoroutines(); len(stacks) != 0 {
		t.Fatalf("%d client goroutines survived Stop; first:\n%s", len(stacks), stacks[0])
	}
}

// clientGoroutines lists the stacks of goroutines still running client
// code (reply loop, sweeper, closed-loop workers), polling briefly.
func clientGoroutines() []string {
	deadline := time.Now().Add(time.Second)
	for {
		var found []string
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(stack, "client.(*Client).") {
				found = append(found, stack)
			}
		}
		if len(found) == 0 || time.Now().After(deadline) {
			return found
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkSubmitAndWait measures one closed-loop operation against an
// echo replica on a zero-delay switch: register, send, reply, wake.
// CI gates its allocs/op against a committed constant (ns/op is
// printed, not gated).
func BenchmarkSubmitAndWait(b *testing.B) {
	sw := network.NewSwitch(nil)
	defer sw.Close()
	newFakeReplica(b, sw, 1, 0, false)
	c := newClient(b, sw, 1)
	if !c.SubmitAndWait(time.Second) {
		b.Fatal("no commit reply")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.SubmitAndWait(time.Second) {
			b.Fatal("no commit reply")
		}
	}
}

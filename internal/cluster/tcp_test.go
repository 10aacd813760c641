package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// assertNoTransportGoroutines is the goleak-style accounting behind
// the TCP teardown guarantees: after Stop, no listener, reader,
// writer, delay-scheduler or kernel-timer goroutine may survive and no
// dial retry may keep spinning. It polls because socket teardown is
// asynchronous.
func assertNoTransportGoroutines(t *testing.T) {
	t.Helper()
	markers := []string{
		"network.(*TCP).acceptLoop",
		"network.(*TCP).readLoop",
		"network.(*TCP).writeLoop",
		"network.(*scheduler).run",
		"network.(*kernelTimer).read",
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var leaked []string
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
			for _, m := range markers {
				if strings.Contains(stack, m) {
					leaked = append(leaked, stack)
					break
				}
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d transport goroutines leaked after Stop; first:\n%s", len(leaked), leaked[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPBackendCommitsAndAgrees: the same cluster API, deployed over
// real loopback sockets, commits client transactions and keeps every
// replica on one chain.
func TestTCPBackendCommitsAndAgrees(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	c := startCluster(t, cfg, Options{Backend: BackendTCP})
	drive(t, c, 8, 800*time.Millisecond)
	if err := c.WaitForHeight(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if v := c.Violations(); v != 0 {
		t.Fatalf("%d safety violations", v)
	}
	msgs, bytes, _ := c.NetworkStats()
	if msgs == 0 || bytes == 0 {
		t.Fatalf("transport counters empty: msgs=%d bytes=%d", msgs, bytes)
	}
	ts := c.TransportStats()
	if ts.Dials == 0 || ts.Accepted == 0 {
		t.Fatalf("expected real connections, stats %+v", ts)
	}
}

// TestTCPBackendCrashTeardownAndRecovery: Crash must sever the
// victim's sockets (visible as redials after Restart) while the rest
// keep committing, and the victim rejoins the chain afterwards.
func TestTCPBackendCrashTeardownAndRecovery(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	cfg.N = 5 // quorum survives one dark replica under rotation
	c := startCluster(t, cfg, Options{Backend: BackendTCP})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cl.RunClosedLoop(8, time.Second)
	defer cl.Stop()

	if err := c.WaitForHeight(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	before := c.Node(types.NodeID(2)).Status().CommittedHeight
	// The survivors must keep committing while 2 is dark.
	target := c.Node(c.Observer()).Status().CommittedHeight + 3
	deadline := time.Now().Add(5 * time.Second)
	for c.Node(c.Observer()).Status().CommittedHeight < target {
		if time.Now().After(deadline) {
			t.Fatal("survivors stalled during crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Restart(2)
	// The restarted replica catches back up over fresh connections.
	deadline = time.Now().Add(5 * time.Second)
	for c.Node(types.NodeID(2)).Status().CommittedHeight <= before {
		if time.Now().After(deadline) {
			t.Fatal("crashed replica never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if ts := c.TransportStats(); ts.Redials == 0 {
		t.Fatalf("crash teardown must show up as redials, stats %+v", ts)
	}
}

// TestTCPBackendStopLeaksNothing: Stop on a TCP deployment — even one
// stopped mid-crash, with connections half torn down — must account
// for every transport goroutine.
func TestTCPBackendStopLeaksNothing(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	c, err := New(cfg, Options{Backend: BackendTCP})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	cl, err := c.NewClient()
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	cl.RunClosedLoop(4, time.Second)
	time.Sleep(300 * time.Millisecond)
	// Stop in the middle of a crash teardown: the nastiest moment.
	c.Crash(3)
	c.Stop()
	c.Stop() // idempotent
	assertNoTransportGoroutines(t)
}

// goroutinesNamed counts running goroutines whose stack names marker.
func goroutinesNamed(marker string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, stack := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(stack, marker) {
			n++
		}
	}
	return n
}

// TestTCPBackendOneScheduler: every shim of a TCP deployment — four
// replicas and a client — holds its delayed messages on the shared
// condition model's one scheduler: one loop, and on Linux one
// kernel-timer reader, while delayed traffic flows, and none after
// Stop.
func TestTCPBackendOneScheduler(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	cfg.Delay = 200 * time.Microsecond
	c, err := New(cfg, Options{Backend: BackendTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cl.RunClosedLoop(4, time.Second)
	if err := c.WaitForHeight(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	wantReaders := 0
	if runtime.GOOS == "linux" {
		wantReaders = 1
	}
	if n := goroutinesNamed("network.(*scheduler).run"); n != 1 {
		t.Fatalf("%d scheduler loops with delayed traffic flowing, want 1", n)
	}
	if n := goroutinesNamed("network.(*kernelTimer).read"); n != wantReaders {
		t.Fatalf("%d kernel-timer readers with delayed traffic flowing, want %d", n, wantReaders)
	}
	c.Stop()
	assertNoTransportGoroutines(t)
}

// TestUnknownBackendRejected: a typo'd backend must fail cluster
// assembly, not silently fall back to the switch.
func TestUnknownBackendRejected(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	if _, err := New(cfg, Options{Backend: "udp"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

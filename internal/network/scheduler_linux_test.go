package network

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// goroutinesWith counts running goroutines whose stack names every
// marker.
func goroutinesWith(markers ...string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, stack := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		all := true
		for _, m := range markers {
			all = all && strings.Contains(stack, m)
		}
		if all {
			n++
		}
	}
	return n
}

// TestKernelTimerFiresAndCloses: an armed kernel timer delivers a
// token, and close releases the timerfd and joins its reader.
func TestKernelTimerFiresAndCloses(t *testing.T) {
	fds := openFDs(t)
	k := newKernelTimer()
	if k == nil {
		t.Fatal("no kernel timer on Linux")
	}
	k.arm(time.Millisecond)
	select {
	case <-k.C:
	case <-time.After(5 * time.Second):
		t.Fatal("armed kernel timer never fired")
	}
	k.arm(time.Hour)
	k.close()
	select {
	case <-k.exited:
	default:
		t.Fatal("close returned before the reader exited")
	}
	if got := openFDs(t); got != fds {
		t.Fatalf("open fds %d after close, %d before", got, fds)
	}
}

// TestSchedulerStopDuringKernelWait: stop on a loop parked on a
// far-off deadline, with its kernel timer armed and its reader parked
// in the poller, returns and leaves neither goroutine nor the timerfd.
func TestSchedulerStopDuringKernelWait(t *testing.T) {
	fds := openFDs(t)
	s := newScheduler(func(delivery) {})
	s.schedule(delivery{at: time.Now().Add(time.Hour)})
	// The heap is never empty, so a loop parked in select is in its
	// timed wait, past arming the kernel timer.
	deadline := time.Now().Add(5 * time.Second)
	for goroutinesWith("network.(*kernelTimer).read", "[IO wait") == 0 ||
		goroutinesWith("network.(*scheduler).run", "[select") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the loop never parked on its deadline")
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	if n := goroutinesWith("network.(*kernelTimer).read"); n != 0 {
		t.Fatalf("%d kernel-timer readers left after stop", n)
	}
	if n := goroutinesWith("network.(*scheduler).run"); n != 0 {
		t.Fatalf("%d scheduler loops left after stop", n)
	}
	if got := openFDs(t); got != fds {
		t.Fatalf("open fds %d after stop, %d before", got, fds)
	}
}

// TestSchedulerLifecycleLeavesNothing: 200 create/close cycles of a
// switch and of a Conditioned shim pair, each cycle delivering one
// delayed message and closing with another in flight, leave the
// open-fd and goroutine counts where they started.
func TestSchedulerLifecycleLeavesNothing(t *testing.T) {
	const cycles = 200
	replicas := []types.NodeID{1, 2}
	for _, path := range []string{"switch", "conditioned"} {
		t.Run(path, func(t *testing.T) {
			fds, goroutines := openFDs(t), runtime.NumGoroutine()
			for i := 0; i < cycles; i++ {
				cond := NewConditions(1)
				cond.SetBaseDelay(200*time.Microsecond, 0)
				swCond := cond
				if path == "conditioned" {
					swCond = nil
				}
				sw := NewSwitch(swCond)
				var src, dst Transport = join(t, sw, 1), join(t, sw, 2)
				if path == "conditioned" {
					src, dst = Condition(src, cond, replicas), Condition(dst, cond, replicas)
				}
				src.Send(2, "hop")
				select {
				case <-dst.Inbox():
				case <-time.After(5 * time.Second):
					t.Fatalf("cycle %d: delayed message never delivered", i)
				}
				cond.SetBaseDelay(time.Hour, 0)
				src.Send(2, "in flight at close")
				_ = src.Close()
				_ = dst.Close()
				sw.Close()
			}
			if got := openFDs(t); got != fds {
				t.Fatalf("open fds %d after %d cycles, %d before", got, cycles, fds)
			}
			// Close joined every goroutine it started; the poll only
			// lets a runtime goroutine that is briefly counted (the
			// finalizer goroutine while it runs a finalizer) settle.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > goroutines {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after %d cycles, %d before:\n%s",
					got, cycles, goroutines, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

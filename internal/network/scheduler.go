package network

import (
	"container/heap"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// delivery is one delayed message awaiting its deadline, and the link
// that sent it: the model hands it to that link, or counts its drop
// there.
type delivery struct {
	at   time.Time
	via  link
	from types.NodeID
	to   types.NodeID
	msg  any
	size int
}

// deliveryHeap orders deliveries by deadline.
type deliveryHeap []delivery

func (h deliveryHeap) Len() int           { return len(h) }
func (h deliveryHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deliveryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)        { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = delivery{}
	*h = old[:n-1]
	return d
}

// scheduler holds delayed messages until their deadlines and hands
// them to deliver from a single goroutine — the cheap, precise
// alternative to a runtime timer per message. Each Conditions model
// owns one, shared by every transport attached to the model: the
// switch, or all the Conditioned shims of one process. The goroutine
// starts with the first scheduled delivery, so a model that never
// delays a message costs nothing, and the scheduler stops for good
// when the last attached transport detaches.
//
// The loop waits on one runtime timer, which fires on time while the
// process is busy. When every P is idle the runtime sleeps in
// epoll_wait in whole milliseconds, so that timer alone turns a 200 µs
// hop into about 1.1 ms. On Linux a kernel timer (kernelTimer, a
// timerfd) races it, and whichever fires first wakes the loop. The
// loop arms the kernel timer after a runtime wake more than lateWake
// late, and keeps arming it until onTimeWakes runtime wakes in a row
// have been on time, so a saturated process, whose runtime timer is
// rarely late, makes most of its waits without a syscall.
// A kernel wake changes nothing: on an idle process the kernel timer
// always fires first and stays armed. The kernel timer is created when
// the loop starts and closed when the loop ends.
//
// The heap stays on container/heap. A typed, allocation-free heap was
// measured: it bought no end-to-end throughput, and by shortening
// vote collection it slows how fast the crash1-rate workload's leader
// before the dead replica piles up orphaned requests, moving the last
// lost request into that workload's measured window.
type scheduler struct {
	deliver func(delivery)

	mu      sync.Mutex
	h       deliveryHeap
	users   int // attached transports
	started bool
	stopped bool

	wake   chan struct{}
	done   chan struct{}
	exited chan struct{}
}

func newScheduler(deliver func(delivery)) *scheduler {
	return &scheduler{
		deliver: deliver,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		exited:  make(chan struct{}),
	}
}

// schedule queues a delivery and wakes the loop if the new deadline
// precedes the previous earliest one. After the last detach it drops
// d.
func (s *scheduler) schedule(d delivery) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	if !s.started {
		s.started = true
		go s.run()
	}
	needWake := s.h.Len() == 0 || d.at.Before(s.h[0].at)
	heap.Push(&s.h, d)
	s.mu.Unlock()
	if needWake {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// attach registers one transport that schedules deliveries.
func (s *scheduler) attach() {
	s.mu.Lock()
	s.users++
	s.mu.Unlock()
}

// detach undoes one attach. The last detach stops the scheduler for
// good: it discards what is queued, ends the loop and waits for it to
// exit.
func (s *scheduler) detach() {
	s.mu.Lock()
	s.users--
	last := s.users == 0 && !s.stopped
	if last {
		s.stopped = true
		s.h = nil
	}
	started := s.started
	s.mu.Unlock()
	if last {
		close(s.done)
		if started {
			<-s.exited
		}
	}
}

// lateWake is how late a runtime-timer wake may be and still count as
// on time: well above the runtime's wake latency on a busy process,
// well below the idle millisecond.
const lateWake = 200 * time.Microsecond

// onTimeWakes is how many on-time runtime wakes in a row disarm the
// kernel timer. One is too few: the first deliveries of a view often
// find the process busy and the last ones find it idle, and disarming
// after one on-time wake left about a third of the hops to an idle
// cluster's first commit a millisecond late (benchmark sat-noop
// setup_s 10.5 ms, against 7.4 ms with sixteen and 15.1 ms without a
// kernel timer). Sixteen keeps it armed through a view and, on the
// saturated workloads, arms it on 15 to 20 % of the waits.
const onTimeWakes = 16

func (s *scheduler) run() {
	defer close(s.exited)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	kernel := newKernelTimer()
	var kernelWake <-chan struct{} // nil, so never ready, without a kernel timer
	// armFor counts the on-time runtime wakes left before the kernel
	// timer is disarmed. It starts full: the loop starts with the first
	// delayed delivery, often on an idle process.
	armFor := 0
	if kernel != nil {
		defer kernel.close()
		kernelWake = kernel.C
		armFor = onTimeWakes
	}
	for {
		s.mu.Lock()
		// Flush everything already due.
		now := time.Now()
		for s.h.Len() > 0 && !s.h[0].at.After(now) {
			d := heap.Pop(&s.h).(delivery)
			s.mu.Unlock()
			s.deliver(d)
			s.mu.Lock()
		}
		var next time.Time
		hasNext := s.h.Len() > 0
		if hasNext {
			next = s.h[0].at
		}
		s.mu.Unlock()

		if !hasNext {
			select {
			case <-s.done:
				return
			case <-s.wake:
			}
			continue
		}
		wait := time.Until(next)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		if armFor > 0 {
			kernel.arm(max(wait, 1))
		}
		select {
		case <-s.done:
			return
		case <-s.wake:
		case <-kernelWake:
			// The token may belong to a deadline already served: the
			// runtime timer fired first, and the last arming before
			// armFor ran out is never cancelled. It costs one pass of
			// the loop, whose flush takes only what is due.
		case <-timer.C:
			switch {
			case kernel == nil:
			case time.Since(next) > lateWake:
				armFor = onTimeWakes
			case armFor > 0:
				armFor--
			}
		}
	}
}

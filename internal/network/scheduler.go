package network

import (
	"container/heap"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// delivery is one delayed message awaiting its deadline.
type delivery struct {
	at   time.Time
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
// them to deliver from a single goroutine driven by one timer — the
// cheap, precise alternative to a runtime timer per message. The switch
// owns one for the whole in-process network; each Conditioned shim
// owns one for its outgoing traffic. The goroutine starts with the
// first scheduled delivery, so a scheduler that never sees a delay
// costs nothing.
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
// precedes the previous earliest one. After stop it drops d.
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

// stop terminates the loop and waits for it to exit; queued deliveries
// are discarded. Safe to call more than once.
func (s *scheduler) stop() {
	s.mu.Lock()
	first := !s.stopped
	s.stopped = true
	started := s.started
	s.h = nil
	s.mu.Unlock()
	if first {
		close(s.done)
	}
	if started {
		<-s.exited
	}
}

func (s *scheduler) run() {
	defer close(s.exited)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
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
		var wait time.Duration
		hasNext := s.h.Len() > 0
		if hasNext {
			wait = time.Until(s.h[0].at)
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
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-s.done:
			return
		case <-s.wake:
		case <-timer.C:
		}
	}
}

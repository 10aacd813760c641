//go:build linux

package network

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, the same on every Linux
// architecture.
const clockMonotonic = 1

// itimerspec mirrors struct itimerspec: the interval stays zero, so
// every arming is one-shot.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// kernelTimer is a one-shot Linux timerfd (CLOCK_MONOTONIC,
// non-blocking) read through an os.File. The netpoller parks the
// reading goroutine without holding a P and epoll_wait returns the
// moment the timerfd fires, so an idle process wakes at the deadline
// instead of at the runtime's next whole millisecond. Each expiry
// sends one token on C, which has room for one.
type kernelTimer struct {
	C <-chan struct{}

	fd     int // owned by f, kept because f.Fd would make it blocking; used only to arm
	f      *os.File
	exited chan struct{}
}

// newKernelTimer creates the timerfd and starts its reader, or returns
// nil when the kernel refuses it.
func newKernelTimer() *kernelTimer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// netpoller.
	f := os.NewFile(fd, "timerfd")
	c := make(chan struct{}, 1)
	k := &kernelTimer{C: c, fd: int(fd), f: f, exited: make(chan struct{})}
	go k.read(c)
	return k
}

// read turns each expiry into a token on c until the file is closed.
// Any read error ends it, so a descriptor the poller did not take (a
// read that fails with EAGAIN) leaves the runtime timer in charge
// rather than spinning.
func (k *kernelTimer) read(c chan<- struct{}) {
	defer close(k.exited)
	var ticks [8]byte
	for {
		if _, err := k.f.Read(ticks[:]); err != nil {
			return
		}
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// arm sets the timer to fire once after d (d > 0), replacing any
// earlier arming. Only the goroutine that will call close may call
// arm.
func (k *kernelTimer) arm(d time.Duration) {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// A failed arming leaves the runtime timer in charge.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(k.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// close releases the timerfd and waits for the reader to exit.
func (k *kernelTimer) close() {
	_ = k.f.Close() // unblocks the parked Read
	<-k.exited
}

//go:build !linux

package network

import "time"

// kernelTimer has no portable equivalent of Linux's timerfd: elsewhere
// newKernelTimer returns nil and the scheduler waits on its runtime
// timer alone, idle-wake floor included.
type kernelTimer struct {
	C <-chan struct{}
}

func newKernelTimer() *kernelTimer { return nil }

func (k *kernelTimer) arm(time.Duration) {}

func (k *kernelTimer) close() {}

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in the kernel rather than on a
// Go timer: an idle Go process wakes timers from the netpoller, whose
// timeout has millisecond granularity, so time.Sleep ran an open-loop
// generator with a 1 ms period about half a millisecond late on every
// sample — more than the latency it was there to measure. nanosleep
// overshoots by ~0.1 ms and burns no CPU.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

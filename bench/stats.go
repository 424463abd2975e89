package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0..1) of values by linear
// interpolation between closest ranks; 0 for an empty slice. (Not
// metrics.Percentile: that one is nearest-rank, which on the four or
// five slices of a run is a jump, not a quartile — and the benchmark
// should not change its figures when the product's helper does.)
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	values = append([]float64(nil), values...)
	sort.Float64s(values)
	pos := p * float64(len(values)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return values[lo] + (values[hi]-values[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// timeN calls fn n times and returns the median duration of one call
// in nanoseconds. Each call is timed on its own, so a scheduler stall
// lands in one sample instead of shifting a mean.
func timeN(n int, fn func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0))
	}
	return median(samples)
}

// timeBatches times fn in batches of per calls (for operations too
// short to time one by one) and returns the median nanoseconds of a
// single call.
func timeBatches(batches, per int, fn func()) float64 {
	return timeN(batches, func() {
		for i := 0; i < per; i++ {
			fn()
		}
	}) / float64(per)
}

// cpuTime returns the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns the process's resident set in MB, read from
// /proc/self/statm; where that is unavailable it falls back to the
// high-water mark getrusage reports.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssPeak samples the resident set every few milliseconds until
// stopped and returns the highest sample. One measured round gets one
// peak, and a run reports the median of its rounds' peaks: the
// process-wide high-water mark would instead report the one round in
// which the garbage collector fell furthest behind.
type rssPeak struct {
	stop chan struct{}
	done chan struct{}
	peak float64 // written by the sampler, read after done
}

func startRSSPeak() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{}), peak: rssMB()}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.peak = max(p.peak, rssMB())
			}
		}
	}()
	return p
}

func (p *rssPeak) finish() float64 {
	close(p.stop)
	<-p.done
	return max(p.peak, rssMB())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

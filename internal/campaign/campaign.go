// Package campaign fans independent simulation runs across a bounded
// pool of workers while guaranteeing deterministic output: results are
// keyed by task index — never by completion order — so a campaign run
// at any worker count is byte-identical to a serial run.
//
// The package exists for fleet-scale experiment sweeps (every ESP
// configuration × seed, every Fig. 12 point, evolving-fraction and
// cluster-size sweeps): each task builds its own engine, cluster,
// scheduler and recorder, so tasks share no mutable state and the only
// coordination is the index counter and the result slot. Dispatch and
// merge are slice-indexed throughout, and no map is ranged anywhere in
// this package, because map order would be the one way to smuggle
// nondeterminism back in.
package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configure a campaign run.
type Options struct {
	// Workers bounds concurrency; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, when set, observes completion: it is called exactly
	// once per finished task with the running done-count and the
	// total. Calls are serialized and done is strictly increasing, but
	// which task just finished is deliberately not exposed — progress
	// is the only place completion order may be observed, and nothing
	// downstream may depend on it.
	OnProgress func(done, total int)
}

// Run executes every task on a bounded worker pool and returns their
// results keyed by task index. Tasks must be independent: they are
// claimed in increasing index order, but may complete in any order.
func Run[T any](tasks []func() T, opts Options) []T {
	n := len(tasks)
	results := make([]T, n)
	if n == 0 {
		return results
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial reference path: no goroutines at all, so a serial
		// campaign is exactly a loop — the baseline parallel runs are
		// verified bit-identical against.
		for i, task := range tasks {
			results[i] = task()
			if opts.OnProgress != nil {
				opts.OnProgress(i+1, n)
			}
		}
		return results
	}

	var (
		next atomic.Int64 // next unclaimed task index
		mu   sync.Mutex   // serializes done counting + OnProgress
		done int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = tasks[i]()
				if opts.OnProgress != nil {
					mu.Lock()
					done++
					opts.OnProgress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// Each runs fn for every index 0..n-1 on the pool; the index-keyed
// variant of Run for tasks that write into caller-owned slots.
func Each(n int, opts Options, fn func(i int)) {
	tasks := make([]func() struct{}, n)
	for i := range tasks {
		i := i
		tasks[i] = func() struct{} {
			fn(i)
			return struct{}{}
		}
	}
	Run(tasks, opts)
}

package job

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestQueueAgainstSlice pushes jobs, takes them out from anywhere and
// puts some back at the tail, through many compactions, and holds the
// queue to a plain slice: same jobs in the same order, every job's slot
// recorded right, and the slots closed up once the empty ones outnumber
// the rest.
func TestQueueAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	var want []*Job
	var out []*Job // jobs not queued
	next := ID(1)
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(want) == 0:
			j := &Job{ID: next}
			next++
			q.Push(j)
			want = append(want, j)
		case r < 5 && len(out) > 0:
			i := rng.Intn(len(out))
			j := out[i]
			out = slices.Delete(out, i, i+1)
			q.Push(j)
			want = append(want, j)
		case r < 6 && len(out) > 0:
			if q.Remove(out[rng.Intn(len(out))]) {
				t.Fatalf("step %d: removed a job that was not queued", step)
			}
		default:
			i := 0
			if rng.Intn(3) > 0 {
				i = rng.Intn(len(want))
			}
			j := want[i]
			want = slices.Delete(want, i, i+1)
			out = append(out, j)
			if !q.Remove(j) {
				t.Fatalf("step %d: job %d not found", step, j.ID)
			}
		}
		if q.Len() != len(want) || !slices.Equal(q.Jobs(), want) {
			t.Fatalf("step %d: queue holds %d jobs, want %d in order", step, q.Len(), len(want))
		}
		for _, j := range want {
			if q.slots[j.qslot] != j {
				t.Fatalf("step %d: job %d records slot %d, which holds another", step, j.ID, j.qslot)
			}
		}
		if len(q.slots) > 2*q.live+64 {
			t.Fatalf("step %d: %d slots for %d jobs: the queue is not being closed up", step, len(q.slots), q.live)
		}
	}
}

// TestQueueReseatAgainstSlice pushes jobs, takes them out from anywhere
// and re-seats some of them, through many compactions, and holds the
// queue to a slice kept in key order: same jobs in the same order, the
// same length, every job's slot recorded right. A re-seated job goes
// back to its place among the rest, into its kept slot or, once a
// compaction has closed that slot, by ordered insert; both happen.
func TestQueueReseatAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q Queue
	var want []*Job // queued, in key order
	var out []*Job  // taken out, keys kept
	next := ID(1)
	var intoSlot, byInsert int
	for step := 0; step < 20000; step++ {
		// Phases of mostly pushes, mostly removals (which close slots up)
		// and mostly re-seats.
		r := rng.Intn(10)
		switch (step / 500) % 3 {
		case 1:
			r = 7 + r%3
		case 2:
			r = 3 + r%3
		}
		switch {
		case r < 3 || len(want) == 0:
			j := &Job{ID: next}
			next++
			q.Push(j)
			want = append(want, j)
		case r < 6 && len(out) > 0:
			i := rng.Intn(len(out))
			j := out[i]
			out = slices.Delete(out, i, i+1)
			if _, kept := slices.BinarySearch(q.keys, j.qkey); kept {
				intoSlot++
			} else {
				byInsert++
			}
			q.Reseat(j)
			at, _ := slices.BinarySearchFunc(want, j.qkey, func(x *Job, k uint64) int { return cmp.Compare(x.qkey, k) })
			want = slices.Insert(want, at, j)
		default:
			i := rng.Intn(len(want))
			j := want[i]
			want = slices.Delete(want, i, i+1)
			out = append(out, j)
			if !q.Remove(j) {
				t.Fatalf("step %d: job %d not found", step, j.ID)
			}
		}
		if q.Len() != len(want) || !slices.Equal(q.Jobs(), want) {
			t.Fatalf("step %d: queue holds %d jobs, want %d in key order", step, q.Len(), len(want))
		}
		for _, j := range want {
			if q.slots[j.qslot] != j {
				t.Fatalf("step %d: job %d records slot %d, which holds another", step, j.ID, j.qslot)
			}
		}
		if !slices.IsSorted(q.keys) || len(q.keys) != len(q.slots) {
			t.Fatalf("step %d: %d keys for %d slots, sorted %v", step, len(q.keys), len(q.slots), slices.IsSorted(q.keys))
		}
	}
	if intoSlot == 0 || byInsert == 0 {
		t.Fatalf("re-seated %d jobs into kept slots and %d by ordered insert; want both", intoSlot, byInsert)
	}
	t.Logf("re-seated %d into kept slots, %d by ordered insert", intoSlot, byInsert)
}

// TestQueueReseatUnpushed: a job no queue has pushed goes to the tail.
func TestQueueReseatUnpushed(t *testing.T) {
	var q Queue
	a, b := &Job{ID: 1}, &Job{ID: 2}
	q.Push(a)
	q.Reseat(b)
	if !slices.Equal(q.Jobs(), []*Job{a, b}) || q.Len() != 2 {
		t.Fatalf("queue = %v, want [1 2]", q.Jobs())
	}
}

// TestQueueRemoveForeignJob: a job that another queue holds, or a copy
// of a queued job, is not taken out of this one.
func TestQueueRemoveForeignJob(t *testing.T) {
	var a, b Queue
	x, y := &Job{ID: 1}, &Job{ID: 2}
	a.Push(x)
	b.Push(y)
	if a.Remove(y) || a.Remove(x.Clone()) {
		t.Fatal("removed a job this queue does not hold")
	}
	if !a.Remove(x) || a.Remove(x) || a.Len() != 0 {
		t.Fatal("a queued job must come out exactly once")
	}
}

// TestRunSetAgainstSortedSlice adds and removes jobs at random and holds
// the set to a sorted slice.
func TestRunSetAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var r RunSet
	var want []*Job
	jobs := make([]*Job, 300)
	for i := range jobs {
		jobs[i] = &Job{ID: ID(i + 1)}
	}
	for step := 0; step < 5000; step++ {
		j := jobs[rng.Intn(len(jobs))]
		i, in := slices.BinarySearchFunc(want, j.ID, func(x *Job, id ID) int { return int(x.ID - id) })
		if rng.Intn(2) == 0 {
			r.Add(j)
			if !in {
				want = slices.Insert(want, i, j)
			}
		} else {
			if r.Remove(j.ID) != in {
				t.Fatalf("step %d: Remove(%d) disagrees with the oracle", step, j.ID)
			}
			if in {
				want = slices.Delete(want, i, i+1)
			}
		}
		if got, ok := r.Get(j.ID); ok != (got == j) || ok != slices.Contains(want, j) {
			t.Fatalf("step %d: Get(%d) = %v, %v", step, j.ID, got, ok)
		}
		if r.Len() != len(want) || !slices.Equal(r.Jobs(), want) {
			t.Fatalf("step %d: set holds %d jobs, want %d in id order", step, r.Len(), len(want))
		}
	}
}

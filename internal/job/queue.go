package job

import (
	"cmp"
	"slices"
)

// Queue is a batch queue in submission order, as both resource managers
// (the simulated one and the live daemon) keep it. A job taken out
// leaves its slot empty, so that taking one out is not a search and a
// shift of everything behind it; once the empty slots outnumber the
// rest the queue is closed up, so a removal costs O(1) amortised
// wherever in the queue it happens. The job remembers its slot, which
// is why a job is in at most one Queue at a time.
//
// Methods that change a Queue take a pointer receiver and those that
// only read it a value receiver: schedlint's epochguard counts a
// pointer-receiver call on an epoch-guarded field as a write to it.
type Queue struct {
	slots []*Job
	head  int // the first slot that may be in use
	live  int // the slots in use
}

// Push appends j at the tail.
func (q *Queue) Push(j *Job) {
	j.qslot = len(q.slots)
	q.slots = append(q.slots, j)
	q.live++
}

// Remove takes j out of the queue where it stands, reporting whether it
// was there.
func (q *Queue) Remove(j *Job) bool {
	i := j.qslot
	if i >= len(q.slots) || q.slots[i] != j {
		return false
	}
	q.slots[i] = nil
	q.live--
	for q.head < len(q.slots) && q.slots[q.head] == nil {
		q.head++
	}
	if len(q.slots) <= 2*q.live+64 {
		return true
	}
	w := 0
	for _, x := range q.slots[q.head:] {
		if x != nil {
			q.slots[w] = x
			x.qslot = w
			w++
		}
	}
	clear(q.slots[w:])
	q.slots, q.head = q.slots[:w], 0
	return true
}

// Len returns the number of queued jobs.
func (q Queue) Len() int { return q.live }

// Jobs returns the queued jobs in submission order, in a new slice.
func (q Queue) Jobs() []*Job {
	out := make([]*Job, 0, q.live)
	for _, j := range q.slots[q.head:] {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}

// RunSet is a set of jobs kept in ID order — the running jobs of a
// resource manager — so that listing them is neither a copy nor a sort,
// and finding one a binary search. Its receivers follow Queue's rule.
type RunSet struct {
	jobs []*Job
}

// find returns where job id is, or would go.
func (r RunSet) find(id ID) (int, bool) {
	return slices.BinarySearchFunc(r.jobs, id, func(j *Job, id ID) int { return cmp.Compare(j.ID, id) })
}

// Add files j under its ID; a job already there is left as it is.
func (r *RunSet) Add(j *Job) {
	if i, ok := r.find(j.ID); !ok {
		r.jobs = slices.Insert(r.jobs, i, j)
	}
}

// Remove takes job id out of the set, reporting whether it was there.
func (r *RunSet) Remove(id ID) bool {
	i, ok := r.find(id)
	if ok {
		r.jobs = slices.Delete(r.jobs, i, i+1)
	}
	return ok
}

// Get returns job id if it is in the set.
func (r RunSet) Get(id ID) (*Job, bool) {
	if i, ok := r.find(id); ok {
		return r.jobs[i], true
	}
	return nil, false
}

// Len returns the number of jobs in the set.
func (r RunSet) Len() int { return len(r.jobs) }

// Jobs returns the jobs in ID order: the set's own slice, read-only and
// valid until the set next changes.
func (r RunSet) Jobs() []*Job { return r.jobs }

// Package job defines the job model shared by the resource manager,
// the scheduler, the simulator and the benchmark generators: job
// classes per Feitelson & Rudolph's taxonomy (rigid, moldable,
// malleable, evolving), lifecycle states including the paper's
// DynQueued state, and the dynamic-request record exchanged between
// the TM interface and the scheduler.
package job

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ID uniquely identifies a job within one server instance.
type ID int

// String renders the ID in the familiar PBS style ("job.42").
func (id ID) String() string { return fmt.Sprintf("job.%d", int(id)) }

// Class is the flexibility class of a job (Feitelson & Rudolph).
type Class int

const (
	// Rigid jobs need exactly the requested resources, allocated
	// before start; the allocation never changes.
	Rigid Class = iota
	// Moldable jobs let the scheduler adjust the request before start.
	Moldable
	// Malleable jobs let the scheduler grow/shrink them at runtime.
	Malleable
	// Evolving jobs grow/shrink themselves at runtime via tm_dynget
	// and tm_dynfree; the scheduler cannot initiate the change.
	Evolving
)

var classNames = [...]string{"rigid", "moldable", "malleable", "evolving"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// State is the lifecycle state of a job at the server.
type State int

const (
	// Unsubmitted jobs exist only in the generator.
	Unsubmitted State = iota
	// Queued jobs wait at the server for an allocation.
	Queued
	// Running jobs hold an allocation and execute.
	Running
	// DynQueued is the paper's special state: a running evolving job
	// whose dynamic request is queued at the server for scheduling.
	DynQueued
	// Completed jobs finished and released all resources.
	Completed
	// Cancelled jobs were removed before or during execution.
	Cancelled
	// Preempted jobs were stopped to free resources; they requeue.
	Preempted
)

var stateNames = [...]string{
	"unsubmitted", "queued", "running", "dynqueued",
	"completed", "cancelled", "preempted",
}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Credentials identify who a job is charged to; every field can carry
// dynamic-fairness settings (users, groups, accounts, classes, QoS).
type Credentials struct {
	User    string
	Group   string
	Account string
	Class   string // queue class, e.g. "batch"
	QoS     string
}

// Job is the server-side job record. The scheduler reads most fields
// and owns the scheduling-related mutable ones (Priority, reservation
// bookkeeping lives in the scheduler, not here).
type Job struct {
	ID    ID
	Name  string
	Cred  Credentials
	Class Class

	// Request at submission.
	Cores    int          // total cores requested
	Walltime sim.Duration // requested walltime

	// Timeline, filled in as the job progresses.
	SubmitTime sim.Time
	StartTime  sim.Time
	EndTime    sim.Time

	State State

	// DynCores is the number of cores currently held beyond the
	// original request (grown via dynamic allocation).
	DynCores int

	// Backfilled records that the job was started out of order by the
	// backfill pass; such jobs may be preempted when the site enables
	// preemption for dynamic requests.
	Backfilled bool

	// Preemptible marks jobs the site allows to be preempted.
	Preemptible bool

	// SystemPriority is an administrative boost; the ESP Z-jobs use it
	// to claim the head of the queue.
	SystemPriority int64

	// MinCores / MaxCores bound scheduler-initiated resizing of
	// malleable jobs (§VI future work, implemented here): the
	// scheduler may shrink a running malleable job to MinCores to
	// serve dynamic requests, and grow it to MaxCores from otherwise
	// idle resources. Zero values default to Cores (no resizing).
	MinCores int
	MaxCores int

	// qslot is the job's slot in the Queue holding it.
	qslot int
}

// ShrinkableBy returns how many cores a malleable job can give up.
func (j *Job) ShrinkableBy() int {
	if j.Class != Malleable {
		return 0
	}
	min := j.MinCores
	if min <= 0 {
		min = j.Cores
	}
	if s := j.TotalCores() - min; s > 0 {
		return s
	}
	return 0
}

// GrowableBy returns how many cores a malleable job can still accept.
func (j *Job) GrowableBy() int {
	if j.Class != Malleable {
		return 0
	}
	max := j.MaxCores
	if max <= 0 {
		max = j.Cores
	}
	if g := max - j.TotalCores(); g > 0 {
		return g
	}
	return 0
}

// TotalCores returns the cores currently associated with the job:
// the original request plus any dynamically acquired cores.
func (j *Job) TotalCores() int { return j.Cores + j.DynCores }

// WaitTime returns how long the job waited in the queue before start.
// It is only meaningful once the job has started.
func (j *Job) WaitTime() sim.Duration { return j.StartTime - j.SubmitTime }

// TurnaroundTime returns submit-to-finish time; only meaningful once
// the job completed.
func (j *Job) TurnaroundTime() sim.Duration { return j.EndTime - j.SubmitTime }

// Active reports whether the job currently holds resources.
func (j *Job) Active() bool { return j.State == Running || j.State == DynQueued }

// Terminal reports whether the job will never run again.
func (j *Job) Terminal() bool { return j.State == Completed || j.State == Cancelled }

// RemainingWalltime returns how much of the job's walltime reservation
// is left at the given time. Zero for jobs that have not started.
func (j *Job) RemainingWalltime(now sim.Time) sim.Duration {
	if !j.Active() {
		return 0
	}
	end := j.StartTime + j.Walltime
	if now >= end {
		return 0
	}
	return end - now
}

// Clone returns a shallow copy; used by schedulers that want to
// evaluate what-if scenarios without touching server state.
func (j *Job) Clone() *Job {
	c := *j
	return &c
}

// DynRequest is a dynamic allocation request from a running evolving
// job, forwarded to the server by the job's mother superior.
type DynRequest struct {
	Job      *Job
	Cores    int      // additional cores wanted
	Nodes    int      // node-granular requests (0 = core-granular)
	PPN      int      // processors per node for node-granular requests
	IssuedAt sim.Time // when the application called tm_dynget
	Seq      int      // FIFO sequence assigned by the server

	// Deadline enables the negotiation protocol the paper names as
	// future work (§III-C): a request that cannot be served yet stays
	// queued (the scheduler *defers* instead of rejecting) until it
	// can be granted or the deadline passes. Zero keeps the paper's
	// immediate-verdict semantics.
	Deadline sim.Time
}

// Negotiable reports whether the request uses deadline semantics.
func (r *DynRequest) Negotiable() bool { return r.Deadline > 0 }

// Expired reports whether a negotiable request's deadline has passed.
func (r *DynRequest) Expired(now sim.Time) bool {
	return r.Negotiable() && now >= r.Deadline
}

// TotalCores returns the number of cores the request asks for.
func (r *DynRequest) TotalCores() int {
	if r.Nodes > 0 {
		return r.Nodes * r.PPN
	}
	return r.Cores
}

// Validate reports whether the request is well-formed.
func (r *DynRequest) Validate() error {
	switch {
	case r.Job == nil:
		return fmt.Errorf("dynrequest: nil job")
	case r.Nodes < 0 || r.PPN < 0 || r.Cores < 0:
		return fmt.Errorf("dynrequest: negative size")
	case r.Nodes > 0 && r.PPN > math.MaxInt/r.Nodes:
		return fmt.Errorf("dynrequest: %d nodes × %d ppn overflows", r.Nodes, r.PPN)
	case r.Nodes > 0 && r.PPN == 0:
		return fmt.Errorf("dynrequest: nodes without ppn")
	case r.TotalCores() == 0:
		return fmt.Errorf("dynrequest: empty request")
	}
	return nil
}

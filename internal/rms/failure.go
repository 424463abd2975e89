package rms

import (
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FailurePolicy selects what happens to jobs that lose cores when a
// node fails and neither the application nor a spare node can absorb
// the loss.
type FailurePolicy int

const (
	// FailCancel kills affected jobs (the default — what a plain
	// Torque deployment does when a mom dies).
	FailCancel FailurePolicy = iota
	// FailRequeue requeues affected jobs to restart from scratch.
	FailRequeue
)

// FaultAwareApp is the optional application interface for fault
// tolerance via dynamic allocation (§I: "Dynamic allocations also help
// during node failures by allocating spare nodes to affected jobs").
// OnNodeFailure is invoked after the lost cores are removed from the
// job's allocation; returning true means the application absorbs the
// loss and keeps running (typically after issuing a dynamic request
// for replacement resources); returning false falls back to the
// server's FailurePolicy.
type FaultAwareApp interface {
	OnNodeFailure(s *Server, j *job.Job, lostCores int, now sim.Time) bool
}

// FailNode marks a node Down and handles every affected job: the dead
// cores are stripped from their allocations; fault-aware applications
// may continue (and request spares), others are requeued or cancelled
// per the server's FailurePolicy. Returns the affected job IDs.
func (s *Server) FailNode(nodeID int) []job.ID {
	now := s.eng.Now()
	s.Cluster().SetNodeState(nodeID, cluster.Down)
	s.NodeEvent(trace.NodeDown, nodeID, now)
	var affected []job.ID
	for _, j := range s.JobsOn(nodeID) {
		affected = append(affected, j.ID)
		origCores := j.Cores
		lost := s.StripNode(j, nodeID, now)
		if lost == 0 {
			continue
		}
		if app, ok := s.apps[j.ID].(FaultAwareApp); ok && app.OnNodeFailure(s, j, lost, now) {
			continue // the application absorbs the failure
		}
		// Fallback: the job cannot continue degraded. Restore the
		// original request size before requeueing/cancelling.
		j.Cores = origCores
		switch s.FailurePolicy {
		case FailRequeue:
			// Requeue via the preemption path (full restart).
			_ = s.Preempt(j)
		default:
			s.CancelJob(j)
		}
	}
	s.Bump(nil)
	s.requestIteration()
	return affected
}

// RepairNode returns a Down/Offline node to service.
func (s *Server) RepairNode(nodeID int) {
	s.Cluster().SetNodeState(nodeID, cluster.Up)
	s.NodeEvent(trace.NodeUp, nodeID, s.eng.Now())
	s.Bump(nil)
	s.requestIteration()
}

// DrainNode marks a node Offline (administrative): running jobs keep
// their cores, but nothing new is placed there.
func (s *Server) DrainNode(nodeID int) {
	s.Cluster().SetNodeState(nodeID, cluster.Offline)
	s.Bump(nil)
	s.requestIteration()
}

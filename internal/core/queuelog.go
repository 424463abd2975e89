package core

import "repro/internal/job"

// queueLogKeep is how many changes a QueueLog still holds after a trim;
// it is trimmed when it holds twice as many. An iteration reads what
// happened since the one before, so the log only has to span the gap
// between two iterations; a burst longer than that is cheaper to absorb
// by refilling the table than by patching it.
const queueLogKeep = 1024

// QueueLog is a resource manager's queue epoch together with a bounded
// log of the jobs that advanced it: the QueueEpoch half of ChangeTracker
// and QueueLogger in one, for an RM to embed in place of a bare counter.
// The zero value is an empty log at epoch 0. Not safe for concurrent
// use; it shares the RM's own synchronisation.
type QueueLog struct {
	epoch uint64
	jobs  []*job.Job // the jobs behind epochs (epoch-len(jobs), epoch], oldest first
}

// Epoch returns the queue epoch.
func (l *QueueLog) Epoch() uint64 { return l.epoch }

// Reset empties the log and restarts it at epoch.
func (l *QueueLog) Reset(epoch uint64) {
	clear(l.jobs)
	l.epoch, l.jobs = epoch, l.jobs[:0]
}

// Bump advances the epoch for a change of j's queue membership. A nil j
// is a change the log cannot name: it empties the log, so that no reader
// is told less than what happened.
func (l *QueueLog) Bump(j *job.Job) {
	if j == nil {
		l.Reset(l.epoch + 1)
		return
	}
	if len(l.jobs) == 2*queueLogKeep {
		n := copy(l.jobs, l.jobs[queueLogKeep:])
		clear(l.jobs[n:])
		l.jobs = l.jobs[:n]
	}
	l.epoch++
	l.jobs = append(l.jobs, j)
}

// Since implements QueueLogger.QueueChanges over the log.
func (l *QueueLog) Since(since uint64) ([]*job.Job, bool) {
	if since > l.epoch || l.epoch-since > uint64(len(l.jobs)) {
		return nil, false
	}
	return l.jobs[len(l.jobs)-int(l.epoch-since):], true
}

// Package jobq is a queue type from another package, held in an
// epoch-guarded field of the rms fixture: changes through pointer
// receivers, reads through value receivers.
package jobq

// Queue is a list of job ids.
type Queue struct{ ids []int }

// Push appends id.
func (q *Queue) Push(id int) { q.ids = append(q.ids, id) }

// Len returns the number of ids.
func (q Queue) Len() int { return len(q.ids) }

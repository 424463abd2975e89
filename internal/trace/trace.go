// Package trace keeps the lifecycle facts of a run and renders them —
// as a human-readable event log and as an ASCII Gantt chart of the
// cluster, with dynamic expansions marked. It is the debugging
// companion to the metrics package: metrics aggregates, trace shows
// the actual schedule.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sim"
)

// Kind classifies a lifecycle fact.
type Kind uint8

const (
	Submit Kind = iota
	Start
	Backfill
	DynRequest
	DynGrant
	DynReject
	DynFree
	Complete
	Cancel
	Preempt
	NodeDown
	NodeUp
	Shrink
	Grow
)

var kindNames = [...]string{
	"submit", "start", "backfill", "dynreq", "dyngrant",
	"dynreject", "dynfree", "complete", "cancel", "preempt",
	"nodedown", "nodeup", "shrink", "grow",
}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// record is one lifecycle fact as a Log keeps it: fixed-size, with no
// pointer for the collector to scan.
type record struct {
	at    sim.Time
	job   int32 // the job's ID; 0 for a node fact
	cores int32
	aux   int32 // a DynGrant's hosts or a DynReject's reason in the pools; a node fact's node ID
	kind  Kind
}

// Event is a record read back, with its job name and note resolved.
type Event struct {
	At    sim.Time
	Kind  Kind
	Job   string // job name ("" for node events)
	Cores int    // cores involved (grant size, job size, ...)
	Note  string
}

// chunkLen is how many entries one storage chunk holds: a log grows a
// chunk at a time and never copies what it already holds.
const chunkLen = 1024

// chunks is an append-only sequence in fixed-size chunks.
type chunks[T any] struct {
	c []*[chunkLen]T
	n int
}

func (s *chunks[T]) add(v T) int {
	if s.n == len(s.c)*chunkLen {
		s.c = append(s.c, new([chunkLen]T))
	}
	s.c[s.n/chunkLen][s.n%chunkLen] = v
	s.n++
	return s.n - 1
}

func (s *chunks[T]) at(i int) *T { return &s.c[i/chunkLen][i%chunkLen] }

// Log holds a run's facts in the order they happened (timestamps never
// decrease, which both harnesses guarantee), one name per job, written
// when the job is first seen (at its submit), and the payloads. The
// zero value is an empty log.
type Log struct {
	recs    chunks[record]
	names   chunks[string]        // by job ID; "" reads as the ID
	hosts   chunks[cluster.Slice] // per grant: {Cores: slice count}, then its slices
	reasons chunks[string]
}

// Append records fact k, one with no payload, about job id named name.
func (l *Log) Append(at sim.Time, k Kind, id job.ID, name string, cores int) {
	l.add(at, k, id, name, cores, 0)
}

// AppendGrant records the dynamic grant of hosts, cores in all, to job id.
func (l *Log) AppendGrant(at sim.Time, id job.ID, name string, cores int, hosts cluster.Alloc) {
	aux := l.hosts.add(cluster.Slice{Cores: len(hosts)})
	for _, h := range hosts {
		l.hosts.add(h)
	}
	l.add(at, DynGrant, id, name, cores, aux)
}

// AppendReject records the rejection of job id's request for cores.
func (l *Log) AppendReject(at sim.Time, id job.ID, name string, cores int, reason string) {
	l.add(at, DynReject, id, name, cores, l.reasons.add(reason))
}

// AppendNode records node fact k (NodeDown or NodeUp) about node.
func (l *Log) AppendNode(at sim.Time, k Kind, node int) { l.add(at, k, 0, "", 0, node) }

func (l *Log) add(at sim.Time, k Kind, id job.ID, name string, cores, aux int) {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("trace: job ID %d out of range", int(id)))
	}
	for l.names.n <= int(id) {
		l.names.add("")
	}
	if n := l.names.at(int(id)); *n == "" {
		*n = name // a node fact's id 0 keeps ""
	}
	l.recs.add(record{at: at, job: int32(id), cores: int32(cores), aux: int32(aux), kind: k})
}

// Len returns the number of recorded facts.
func (l *Log) Len() int { return l.recs.n }

// name resolves a record's job: its name, else its ID ("" for none).
func (l *Log) name(id int32) string {
	if n := *l.names.at(int(id)); n != "" || id == 0 {
		return n
	}
	return job.ID(id).String()
}

// event resolves record i.
func (l *Log) event(i int) Event {
	r := l.recs.at(i)
	e := Event{At: r.at, Kind: r.kind, Job: l.name(r.job), Cores: int(r.cores)}
	switch r.kind {
	case DynGrant:
		hosts := make(cluster.Alloc, l.hosts.at(int(r.aux)).Cores)
		for i := range hosts {
			hosts[i] = *l.hosts.at(int(r.aux) + 1 + i)
		}
		e.Note = hosts.String()
	case DynReject:
		e.Note = *l.reasons.at(int(r.aux))
	case NodeDown:
		e.Note = fmt.Sprintf("node%d failed", r.aux)
	case NodeUp:
		e.Note = fmt.Sprintf("node%d repaired", r.aux)
	}
	return e
}

// Events returns every recorded fact, resolved.
func (l *Log) Events() []Event { return l.Filter() }

// Filter returns the facts of the given kinds, resolved; no kind
// selects every fact.
func (l *Log) Filter(kinds ...Kind) []Event {
	var out []Event
	for i := 0; i < l.recs.n; i++ {
		if len(kinds) == 0 || slices.Contains(kinds, l.recs.at(i).kind) {
			out = append(out, l.event(i))
		}
	}
	return out
}

// String renders the log, one line per fact.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		fmt.Fprintf(&b, "%s %-9s %-12s", sim.FormatTime(e.At), e.Kind, e.Job)
		if e.Cores != 0 {
			fmt.Fprintf(&b, " cores=%-4d", e.Cores)
		}
		if e.Note != "" {
			fmt.Fprintf(&b, " %s", e.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Span is one horizontal bar of the Gantt chart.
type Span struct {
	Job        string
	Start, End sim.Time
	Cores      int
	GrewAt     sim.Time // zero when the job never expanded
	Backfilled bool
}

// Spans derives job spans from the log (start/backfill → complete or
// cancel), annotated with the first dynamic grant.
func (l *Log) Spans() []Span {
	open := map[string]*Span{}
	var done []Span
	for i := 0; i < l.recs.n; i++ {
		r := l.recs.at(i)
		switch name := l.name(r.job); r.kind {
		case Start, Backfill:
			open[name] = &Span{Job: name, Start: r.at, Cores: int(r.cores), Backfilled: r.kind == Backfill}
		case DynGrant, DynFree:
			if s, ok := open[name]; ok && r.kind == DynFree {
				s.Cores -= int(r.cores)
			} else if ok {
				s.GrewAt = cmp.Or(s.GrewAt, r.at)
				s.Cores += int(r.cores)
			}
		case Complete, Cancel, Preempt:
			if s, ok := open[name]; ok {
				s.End = r.at
				done = append(done, *s)
				delete(open, name)
			}
		}
	}
	// Any still-open spans end at the last event.
	var last sim.Time
	if l.recs.n > 0 {
		last = l.recs.at(l.recs.n - 1).at
	}
	names := make([]string, 0, len(open))
	for n := range open {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := *open[n]
		s.End = last
		done = append(done, s)
	}
	sort.Slice(done, func(i, j int) bool {
		return cmp.Or(cmp.Compare(done[i].Start, done[j].Start), strings.Compare(done[i].Job, done[j].Job)) < 0
	})
	return done
}

// Gantt renders the spans as an ASCII chart with the given width in
// character cells. Legend: '=' running, '#' running after a dynamic
// expansion, 'b' marks a backfilled start.
func (l *Log) Gantt(width int) string {
	spans := l.Spans()
	if len(spans) == 0 {
		return "(empty schedule)\n"
	}
	width = max(width, 20)
	t0, t1 := spans[0].Start, sim.Time(0) // spans are in start order
	for _, s := range spans {
		t1 = max(t1, s.End)
	}
	t1 = max(t1, t0+1)
	scale := float64(width) / float64(t1-t0)
	cell := func(t sim.Time) int { return max(0, min(width-1, int(float64(t-t0)*scale))) }
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s |%s| cores\n", "job", strings.Repeat("-", width))
	for _, s := range spans {
		row := []byte(strings.Repeat(" ", width))
		from, to := cell(s.Start), cell(s.End)
		grew := width
		if s.GrewAt > 0 {
			grew = cell(s.GrewAt)
		}
		for i := from; i <= to && i < width; i++ {
			if i >= grew {
				row[i] = '#'
			} else {
				row[i] = '='
			}
		}
		if s.Backfilled {
			row[from] = 'b'
		}
		fmt.Fprintf(&b, "%-14s |%s| %d\n", s.Job, row, s.Cores)
	}
	fmt.Fprintf(&b, "%-14s  %s .. %s\n", "", sim.FormatTime(t0), sim.FormatTime(t1))
	return b.String()
}

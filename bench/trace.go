package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the driver recorded around its own call
// into a layer. Spans of one job (or one dynget) share Job and hang
// off one root through Parent; times are nanoseconds since the
// tracer's origin.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 = root
	Job     int    `json:"job"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so workloads call it
// unconditionally and the untraced path pays one nil check.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id for children to name
// as their parent.
func (t *tracer) add(parent int64, job int, layer, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Layer: layer, Name: name,
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin)),
	})
	return id
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each span its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			p := t.spans[s.Parent-1]
			lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	for _, s := range t.spans {
		if self := s.EndNS - s.StartNS - covered[s.ID]; self > 0 {
			out[s.Layer] += time.Duration(self)
		}
	}
	return out
}

// medians returns the median duration in µs of the spans of each
// "layer.name", the quickest way to see where a request's time goes.
func (t *tracer) medians() map[string]float64 {
	by := map[string][]float64{}
	if t == nil {
		return nil
	}
	t.mu.Lock()
	for _, s := range t.spans {
		key := s.Layer + "." + s.Name
		by[key] = append(by[key], float64(s.EndNS-s.StartNS)/1e3)
	}
	t.mu.Unlock()
	out := make(map[string]float64, len(by))
	for key, v := range by {
		out[key] = median(v)
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// sortedKeys returns the keys of a map in name order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

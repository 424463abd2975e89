package fairtree

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// HistoryFormat selects the allocation-history encoding.
type HistoryFormat int

const (
	// HistoryCSV writes one comma-separated row per node snapshot.
	HistoryCSV HistoryFormat = iota
	// HistoryJSONL writes one JSON object per line.
	HistoryJSONL
)

// ParseHistoryFormat maps "csv"/"jsonl" to a HistoryFormat.
func ParseHistoryFormat(s string) (HistoryFormat, error) {
	switch s {
	case "", "csv":
		return HistoryCSV, nil
	case "jsonl":
		return HistoryJSONL, nil
	}
	return HistoryCSV, fmt.Errorf("fairtree: unknown history format %q (want csv or jsonl)", s)
}

// HistoryWriter streams allocation-history snapshots (the KAI
// time-aware-simulator CSV idea): periodic per-node rows of decayed
// usage and fairshare factor, so fairness over time is analyzable
// offline. Output is byte-deterministic: rows are emitted in NodeID
// order (creation order, which submission order fixes), floats are
// formatted with strconv shortest round-trip, and no wall-clock or
// map-iteration state leaks in.
type HistoryWriter struct {
	w      *bufio.Writer
	format HistoryFormat
	wrote  bool
}

// NewHistoryWriter wraps w. Call Flush when done.
func NewHistoryWriter(w io.Writer, format HistoryFormat) *HistoryWriter {
	return &HistoryWriter{w: bufio.NewWriter(w), format: format}
}

func (h *HistoryWriter) header() {
	if h.wrote {
		return
	}
	h.wrote = true
	if h.format == HistoryCSV {
		h.w.WriteString("time_s,epoch,node,depth,usage,factor,quota,live\n")
	}
}

func (h *HistoryWriter) row(now sim.Time, epoch int64, path string, depth int32, usage, factor, quota float64, live bool) {
	h.header()
	var buf [32]byte
	switch h.format {
	case HistoryCSV:
		h.w.Write(strconv.AppendFloat(buf[:0], sim.SecondsOf(now), 'g', -1, 64))
		h.w.WriteByte(',')
		h.w.Write(strconv.AppendInt(buf[:0], epoch, 10))
		h.w.WriteByte(',')
		h.w.WriteString(path)
		h.w.WriteByte(',')
		h.w.Write(strconv.AppendInt(buf[:0], int64(depth), 10))
		h.w.WriteByte(',')
		h.w.Write(strconv.AppendFloat(buf[:0], usage, 'g', -1, 64))
		h.w.WriteByte(',')
		h.w.Write(strconv.AppendFloat(buf[:0], factor, 'g', -1, 64))
		h.w.WriteByte(',')
		h.w.Write(strconv.AppendFloat(buf[:0], quota, 'g', -1, 64))
		h.w.WriteByte(',')
		h.w.Write(strconv.AppendBool(buf[:0], live))
		h.w.WriteByte('\n')
	case HistoryJSONL:
		fmt.Fprintf(h.w, `{"time_s":%s,"epoch":%d,"node":%q,"depth":%d,"usage":%s,"factor":%s,"quota":%s,"live":%t}`+"\n",
			strconv.FormatFloat(sim.SecondsOf(now), 'g', -1, 64), epoch, path, depth,
			strconv.FormatFloat(usage, 'g', -1, 64),
			strconv.FormatFloat(factor, 'g', -1, 64),
			strconv.FormatFloat(quota, 'g', -1, 64), live)
	}
}

// Flush flushes buffered rows to the underlying writer.
func (h *HistoryWriter) Flush() error {
	h.header()
	return h.w.Flush()
}

// EmitHistory appends one snapshot row per node (NodeID order,
// excluding the root) with depth ≤ maxDepth (0 = no limit) and
// decayed usage > 0 or live structure. now is simulation time.
func (t *Tree) EmitHistory(h *HistoryWriter, now sim.Time, maxDepth int) {
	for id := NodeID(1); int(id) < len(t.names); id++ {
		if maxDepth > 0 && int(t.depth[id]) > maxDepth {
			continue
		}
		u := t.usageAt(id)
		if u <= 0 && !t.live[id] {
			continue
		}
		h.row(now, t.epoch, t.Path(id), t.depth[id], u,
			t.Factor(id), t.quota[id], t.live[id])
	}
}

package serverd

import (
	"sync/atomic"

	"repro/internal/sim"
)

// beacon is one liveness observation from a mom read loop: the node
// that spoke, when (server-virtual time), and — for heartbeats that
// carry instrumentation — the sender's wall clock in Unix ms.
type beacon struct {
	node int32
	sent int64
	at   sim.Time
}

// beaconRing is a bounded lock-free multi-producer single-consumer
// queue (the Vyukov bounded-queue sequence scheme) carrying beacons
// from the mom read goroutines to the loop's monitor sweep. Stamping
// ni.lastSeen once per message would cost the loop one inbox event per
// heartbeat, 10k a second at 10k moms; producers here contend only on
// a CAS over the head counter, and the sweep applies the batch at
// once.
//
// Each slot carries a sequence number: seq == pos means free for the
// producer claiming pos, seq == pos+1 means published and ready for
// the consumer, which recycles the slot by storing pos+len(slots).
type beaconRing struct {
	slots   []beaconSlot
	mask    uint64
	head    atomic.Uint64
	tail    uint64 // consumer cursor; the loop only
	dropped atomic.Uint64
}

type beaconSlot struct {
	seq atomic.Uint64
	b   beacon
}

// newBeaconRing sizes the ring up to the next power of two.
func newBeaconRing(size int) *beaconRing {
	n := 1
	for n < size {
		n <<= 1
	}
	r := &beaconRing{slots: make([]beaconSlot, n), mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push publishes one beacon; false means the ring is full (the
// consumer has not freed the slot yet) and the caller must post the
// stamp to the loop so no liveness evidence is lost.
func (r *beaconRing) push(b beacon) bool {
	pos := r.head.Load()
	for {
		slot := &r.slots[pos&r.mask]
		switch seq := slot.seq.Load(); {
		case seq == pos:
			if r.head.CompareAndSwap(pos, pos+1) {
				slot.b = b
				slot.seq.Store(pos + 1)
				return true
			}
			pos = r.head.Load()
		case seq < pos:
			r.dropped.Add(1)
			return false
		default:
			pos = r.head.Load()
		}
	}
}

// drain consumes every published beacon in order. Single consumer
// only (the loop).
func (r *beaconRing) drain(fn func(beacon)) {
	for {
		slot := &r.slots[r.tail&r.mask]
		if slot.seq.Load() != r.tail+1 {
			return
		}
		b := slot.b
		slot.seq.Store(r.tail + uint64(len(r.slots)))
		r.tail++
		fn(b)
	}
}

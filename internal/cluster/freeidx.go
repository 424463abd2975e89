package cluster

import (
	"fmt"
	"math/bits"
)

// freeIndex holds the Up nodes with free cores by their free-core
// value: for each value some node has, a bucket with a bitset over node
// IDs. A full or unavailable node is in no bucket. Moving a node
// between values is O(1); walking the values from the largest down and
// each bucket's bits in ascending ID gives the placement order
// (emptiest first, lower ID among equals) without sorting.
//
// Buckets exist only for values present: one that empties goes to the
// spare list and is reused for the next new value, so the bitsets cost
// O(nodes/64) words per present value. A lookup slot per value and a
// bitset over values, which the walk scans to skip absent ones, are
// sized by the largest node.
type freeIndex struct {
	slot    []int32  // slot[v]-1 is value v's bucket; 0 when v is absent
	values  []uint64 // bit v is set when value v has a bucket
	buckets []bucket
	spare   []int32 // empty buckets, ready for reuse
}

// bucket is the set of nodes with one free-core value.
type bucket struct {
	ids []uint64 // bitset over node IDs
	n   int      // nodes in it
}

// grow makes room for free-core values up to maxValue.
func (x *freeIndex) grow(maxValue int) {
	if len(x.slot) <= maxValue {
		x.slot = append(x.slot, make([]int32, maxValue+1-len(x.slot))...)
		x.values = append(x.values, make([]uint64, maxValue>>6+1-len(x.values))...)
	}
}

// bucket returns value v's bucket; v must be present.
func (x *freeIndex) bucket(v int) *bucket { return &x.buckets[x.slot[v]-1] }

// move files node id, whose free-core value changed from one value to
// another, under its new value. A value of zero or less is no bucket.
func (x *freeIndex) move(id, from, to int) {
	if from == to {
		return
	}
	if from > 0 {
		b := x.bucket(from)
		b.ids[id>>6] &^= 1 << (id & 63)
		if b.n--; b.n == 0 {
			x.spare = append(x.spare, x.slot[from]-1)
			x.slot[from] = 0
			x.values[from>>6] &^= 1 << (from & 63)
		}
	}
	if to > 0 {
		if x.slot[to] == 0 {
			if k := len(x.spare); k > 0 {
				x.slot[to] = x.spare[k-1] + 1
				x.spare = x.spare[:k-1]
			} else {
				x.buckets = append(x.buckets, bucket{})
				x.slot[to] = int32(len(x.buckets))
			}
			x.values[to>>6] |= 1 << (to & 63)
		}
		b := x.bucket(to)
		if w := id >> 6; w >= len(b.ids) {
			b.ids = append(b.ids, make([]uint64, w+1-len(b.ids))...)
		}
		b.ids[id>>6] |= 1 << (id & 63)
		b.n++
	}
}

// below returns the largest present value at most v, or 0 when there
// is none.
func (x *freeIndex) below(v int) int {
	if v <= 0 {
		return 0
	}
	w := v >> 6
	m := x.values[w] & (^uint64(0) >> (63 - v&63))
	for m == 0 {
		if w--; w < 0 {
			return 0
		}
		m = x.values[w]
	}
	return w<<6 + 63 - bits.LeadingZeros64(m)
}

// next returns the lowest node ID at least id in b, or -1.
func (b *bucket) next(id int) int {
	w := id >> 6
	if w >= len(b.ids) {
		return -1
	}
	m := b.ids[w] &^ (1<<(id&63) - 1)
	for m == 0 {
		if w++; w >= len(b.ids) {
			return -1
		}
		m = b.ids[w]
	}
	return w<<6 + bits.TrailingZeros64(m)
}

// check holds the index to the nodes: each node with free cores is in
// its value's bucket and no other, and every kept bucket is non-empty
// and counted, so an emptied one is on the spare list.
func (x *freeIndex) check(nodes []*Node) error {
	owner := make([]int, len(x.buckets)) // the value holding each bucket, -1 when spare
	for v := range x.slot {
		present := x.values[v>>6]&(1<<(v&63)) != 0
		if present != (x.slot[v] != 0) {
			return fmt.Errorf("free value %d: slot %d, value bit %v", v, x.slot[v], present)
		}
		if !present {
			continue
		}
		k := x.slot[v] - 1
		if owner[k] != 0 {
			return fmt.Errorf("free values %d and %d share bucket %d", owner[k], v, k)
		}
		owner[k] = v
		b, count := x.bucket(v), 0
		for id := b.next(0); id >= 0; id = b.next(id + 1) {
			if id >= len(nodes) || nodes[id].Free() != v {
				return fmt.Errorf("free value %d: bucket holds node%d, which is not at that value", v, id)
			}
			count++
		}
		if count == 0 || count != b.n {
			return fmt.Errorf("free value %d: bucket counts %d nodes, holds %d", v, b.n, count)
		}
	}
	for _, k := range x.spare {
		if b := &x.buckets[k]; owner[k] != 0 || b.n != 0 || b.next(0) >= 0 {
			return fmt.Errorf("spare bucket %d is in use or listed twice", k)
		}
		owner[k] = -1
	}
	for k, v := range owner {
		if v == 0 {
			return fmt.Errorf("bucket %d is neither in use nor spare", k)
		}
	}
	for _, n := range nodes {
		if f := n.Free(); f > 0 && (x.slot[f] == 0 || x.bucket(f).next(n.ID) != n.ID) {
			return fmt.Errorf("node%d with %d free cores is not in that bucket", n.ID, f)
		}
	}
	return nil
}

// Package fairtree implements a hierarchical fairshare tree (org →
// team → user, arbitrary depth) designed to stay fast at one million
// leaves:
//
//   - A user name maps once to its leaf; every hot-path structure is
//     a struct-of-arrays indexed by dense NodeID.
//   - Usage decays lazily: each node stores (raw, stampEpoch) and the
//     decayed value is computed on read as raw·decay^(epoch−stamp), so
//     advancing time costs O(deaths), not O(nodes).
//   - Node expiry (the legacy per-interval prune sweep) is replaced by
//     a death min-heap: when usage is recorded we compute analytically
//     at which epoch it will decay below eps and schedule exactly one
//     heap entry.
//
// Iteration over maps is never used for anything that feeds scheduling
// or output; nothing in this package ranges over a map.
package fairtree

import (
	"math"

	"repro/internal/sim"
)

// NodeID is a dense index into the tree's node arrays.
type NodeID int32

// None is the null NodeID (parent of the root).
const None NodeID = -1

// eps matches the legacy flat fairshare prune threshold: usage that
// decays below this is treated as gone and its leaf dies.
const eps = 1e-9

// neverEpoch marks a node with no scheduled death.
const neverEpoch = math.MaxInt64

// maxPowMemo bounds the memoized decay power table; beyond it (or
// after underflow to zero) decayPow falls back to math.Pow. All
// exactness claims (decay ∈ {0, 0.5, 1}) stay inside the memo.
const maxPowMemo = 8192

// Options configures a Tree.
type Options struct {
	// Interval is the decay epoch length. Epoch k covers
	// [k·Interval, (k+1)·Interval); this matches the legacy
	// Fairshare interval grid anchored at time 0.
	Interval sim.Duration
	// Decay multiplies usage once per elapsed interval. 0 clears
	// usage every interval; 1 never decays.
	Decay float64
}

// defaultMaxDirty bounds the change log consumed by DirtySince: when
// the log exceeds twice this it is compacted to this many entries, and
// consumers that fell behind get ok=false and must rebuild.
const defaultMaxDirty = 4096

// Tree is the hierarchical share tree of the paper's Maui fairshare.
// One goroutine owns it — the one that owns the scheduler and its
// core.Lifecycle, which charges every ended run (RecordNow), rolls the
// epoch (Advance) and reads factors in the same iteration — so it has
// no lock. Not safe for concurrent use; a caller with several producers
// stages their charges and applies them from the owner.
type Tree struct {
	interval sim.Duration
	decay    float64
	epoch    int64

	// Node arrays, indexed by NodeID. raw is the usage decayed as
	// of stamp[i]; for interior nodes it is the subtree total.
	names  []string
	parent []NodeID
	depth  []int32
	quota  []float64
	overW  []float64
	raw    []float64
	stamp  []int64
	death  []int64 // scheduled death epoch; heap entries not matching this are stale
	live   []bool
	liveQ  []float64 // sum of live children's quotas (interior)
	liveN  []int32   // count of live children (interior)

	// Structure lookups. Maps are keyed access only — never ranged.
	children  map[childKey]NodeID
	users     map[string]NodeID // user name → its leaf, once created
	userHome  map[string]NodeID // spec placement: user name → parent node
	liveLeafN int
	flat      bool // no interior nodes: every node is a child of the root

	deaths deathHeap

	// Decay power memo: pow[k] = decay^k, built incrementally so
	// 0.5^k is an exact product of halvings. powZero is the first
	// k at which the value underflowed to zero (-1 if not yet).
	pow     []float64
	powZero int

	pathCache []string // lazily memoized dot paths (immutable once set)

	lnDecay   float64
	rank      *Ranking
	serial    uint64 // next change-log serial (== dirtyBase+len(dirty))
	dirty     []NodeID
	dirtyBase uint64
	maxDirty  int    // defaultMaxDirty; tests shrink it
	sealed    uint64 // serial last observed by a consumer; entries below it must not coalesce
}

type childKey struct {
	parent NodeID
	name   string
}

// New builds a tree with a single root node (quota 1, over-quota
// weight 1).
func New(opts Options) *Tree {
	if opts.Interval <= 0 {
		opts.Interval = 24 * sim.Hour
	}
	if opts.Decay < 0 {
		opts.Decay = 0
	}
	if opts.Decay > 1 {
		opts.Decay = 1
	}
	t := &Tree{
		interval: opts.Interval,
		decay:    opts.Decay,
		children: make(map[childKey]NodeID),
		users:    make(map[string]NodeID),
		userHome: make(map[string]NodeID),
		pow:      []float64{1},
		powZero:  -1,
		maxDirty: defaultMaxDirty,
		flat:     true,
	}
	if opts.Decay > 0 && opts.Decay < 1 {
		t.lnDecay = math.Log(opts.Decay)
	}
	t.addNode("", None) // root: NodeID 0
	return t
}

// Root returns the root NodeID.
func (t *Tree) Root() NodeID { return 0 }

// Interval returns the decay interval.
func (t *Tree) Interval() sim.Duration { return t.interval }

// Decay returns the per-interval decay factor.
func (t *Tree) Decay() float64 { return t.decay }

// Epoch returns the current epoch (advanced by Advance).
func (t *Tree) Epoch() int64 {
	return t.epoch
}

// NumNodes returns the total node count including the root.
func (t *Tree) NumNodes() int {
	return len(t.names)
}

// LiveLeaves returns the number of leaves with nonzero decayed usage.
func (t *Tree) LiveLeaves() int {
	return t.liveLeafN
}

// Flat reports whether the tree is degenerate: every node a direct
// child of the root. Only then is the factor of an entity a monotone
// function of its own usage alone, which is what makes incremental
// priority repair (core.jobTable.repair) exact; deeper trees fall back
// to full re-sorts when usage changes.
func (t *Tree) Flat() bool {
	return t.flat
}

// addNode appends a node.
func (t *Tree) addNode(name string, parent NodeID) NodeID {
	if parent > 0 {
		t.flat = false
	}
	id := NodeID(len(t.names))
	t.names = append(t.names, name)
	t.parent = append(t.parent, parent)
	d := int32(0)
	if parent != None {
		d = t.depth[parent] + 1
	}
	t.depth = append(t.depth, d)
	t.quota = append(t.quota, 1)
	t.overW = append(t.overW, 1)
	t.raw = append(t.raw, 0)
	t.stamp = append(t.stamp, t.epoch)
	t.death = append(t.death, neverEpoch)
	t.live = append(t.live, false)
	t.liveQ = append(t.liveQ, 0)
	t.liveN = append(t.liveN, 0)
	return id
}

// Child returns the child of parent with the given name, creating it
// (quota 1, weight 1, no usage) if absent.
func (t *Tree) Child(parent NodeID, name string) NodeID {
	k := childKey{parent, name}
	if id, ok := t.children[k]; ok {
		return id
	}
	id := t.addNode(name, parent)
	t.children[k] = id
	return id
}

// SetQuota sets a node's share quota relative to its siblings.
// Quotas of dead nodes do not dilute live ones: targets divide by the
// sum of live siblings' quotas.
func (t *Tree) SetQuota(id NodeID, q float64) {
	if q <= 0 {
		q = 1
	}
	if t.live[id] {
		if p := t.parent[id]; p != None {
			t.liveQ[p] += q - t.quota[id]
		}
	}
	t.quota[id] = q
}

// SetOverWeight sets a node's over-quota weight: how strongly
// exceeding its share counts against it. Weights > 1 soften the
// penalty (the node is entitled to more of the slack), < 1 harden it.
func (t *Tree) SetOverWeight(id NodeID, w float64) {
	if w <= 0 {
		w = 1
	}
	t.overW[id] = w
}

// UserID interns a user name and returns its leaf, creating the leaf
// under the user's home (see Home) on first sight.
func (t *Tree) UserID(name string) NodeID {
	if id, ok := t.users[name]; ok {
		return id
	}
	id := t.Child(t.userHome[name], name)
	t.users[name] = id
	return id
}

// LookupUser returns the leaf for a user without creating it.
func (t *Tree) LookupUser(name string) (NodeID, bool) {
	if id, ok := t.users[name]; ok {
		return id, true
	}
	return None, false
}

// Home returns the node a user's leaf hangs under: the leaf's parent
// once the user is interned, else the user's FSTREE home, else the
// root. It creates nothing, so a user's ancestors are known before
// the user is first charged.
func (t *Tree) Home(user string) NodeID {
	if id, ok := t.users[user]; ok {
		return t.parent[id]
	}
	return t.userHome[user] // the root (0) when the user has no home
}

// Name returns a node's own name component.
func (t *Tree) Name(id NodeID) string {
	return t.names[id]
}

// Parent returns a node's parent (None for the root).
func (t *Tree) Parent(id NodeID) NodeID {
	return t.parent[id]
}

// Path returns the dot-joined path from the root, e.g. "org.team.u1".
func (t *Tree) Path(id NodeID) string {
	if id == 0 {
		return ""
	}
	n := 0
	for x := id; x != None && x != 0; x = t.parent[x] {
		n += len(t.names[x]) + 1
	}
	buf := make([]byte, n-1)
	w := len(buf)
	for x := id; x != None && x != 0; x = t.parent[x] {
		name := t.names[x]
		w -= len(name)
		copy(buf[w:], name)
		if w > 0 {
			w--
			buf[w] = '.'
		}
	}
	return string(buf)
}

// CachedPath is Path with memoization: node paths are immutable, so
// repeat callers (the fairness rollup does one per ancestor per
// charge) get the same string without rebuilding it.
func (t *Tree) CachedPath(id NodeID) string {
	for int(id) >= len(t.pathCache) {
		t.pathCache = append(t.pathCache, "")
	}
	if t.pathCache[id] == "" && id != 0 {
		t.pathCache[id] = t.Path(id)
	}
	return t.pathCache[id]
}

// decayPow returns decay^k.
func (t *Tree) decayPow(k int64) float64 {
	if k <= 0 {
		return 1
	}
	if t.decay >= 1 {
		return 1
	}
	if t.decay <= 0 {
		return 0
	}
	if t.powZero >= 0 && k >= int64(t.powZero) {
		return 0
	}
	if k >= maxPowMemo {
		return math.Pow(t.decay, float64(k))
	}
	for int64(len(t.pow)) <= k {
		next := t.pow[len(t.pow)-1] * t.decay
		if next == 0 {
			t.powZero = len(t.pow)
			return 0
		}
		t.pow = append(t.pow, next)
	}
	return t.pow[k]
}

// usageAt returns a node's decayed usage at the current epoch without
// mutating it.
func (t *Tree) usageAt(id NodeID) float64 {
	r := t.raw[id]
	if r == 0 {
		return 0
	}
	if k := t.epoch - t.stamp[id]; k > 0 {
		return r * t.decayPow(k)
	}
	return r
}

// touch folds pending decay into a node's stored value.
func (t *Tree) touch(id NodeID) {
	if k := t.epoch - t.stamp[id]; k > 0 {
		if t.raw[id] != 0 {
			t.raw[id] *= t.decayPow(k)
		}
		t.stamp[id] = t.epoch
	}
}

// UsageOf returns a node's decayed usage at the current epoch.
func (t *Tree) UsageOf(id NodeID) float64 {
	return t.usageAt(id)
}

// RecordNow charges usage to a leaf and its ancestors, visible to the
// next Factor read.
func (t *Tree) RecordNow(id NodeID, amt float64) {
	if amt <= 0 {
		return
	}
	t.touch(id)
	t.raw[id] += amt
	if !t.live[id] {
		t.revive(id)
	}
	t.scheduleDeath(id)
	for p := t.parent[id]; p != None; p = t.parent[p] {
		t.touch(p)
		t.raw[p] += amt
	}
	t.logDirty(id)
	if t.rank != nil {
		t.rank.update(t, id)
	}
}

// revive marks a leaf live and restores its ancestors' live-children
// accounting.
func (t *Tree) revive(id NodeID) {
	t.live[id] = true
	t.liveLeafN++
	ch := id
	for p := t.parent[ch]; p != None; p = t.parent[p] {
		t.liveQ[p] += t.quota[ch]
		t.liveN[p]++
		if t.live[p] {
			break
		}
		t.live[p] = true
		ch = p
	}
}

// kill expires a leaf whose usage decayed below eps: its residual is
// subtracted from every ancestor and liveness is cascaded.
func (t *Tree) kill(id NodeID) {
	residual := t.usageAt(id)
	t.raw[id] = 0
	t.stamp[id] = t.epoch
	t.death[id] = neverEpoch
	t.live[id] = false
	t.liveLeafN--
	ch := id
	unlink := true
	for p := t.parent[ch]; p != None; p = t.parent[p] {
		if residual > 0 {
			t.touch(p)
			t.raw[p] -= residual
			if t.raw[p] < 0 {
				t.raw[p] = 0
			}
		}
		if unlink {
			t.liveQ[p] -= t.quota[ch]
			t.liveN[p]--
			if t.liveN[p] > 0 {
				unlink = false
			} else {
				t.live[p] = false
				t.liveQ[p] = 0
				t.liveN[p] = 0
				ch = p
			}
		}
	}
	t.logDirty(id)
	if t.rank != nil {
		t.rank.remove(id)
	}
}

// scheduleDeath computes the first epoch at which a leaf's usage will
// decay below eps and (re)schedules its heap entry.
func (t *Tree) scheduleDeath(id NodeID) {
	u := t.raw[id]
	var at int64
	switch {
	case u < eps:
		at = t.epoch + 1
	case t.decay >= 1:
		at = neverEpoch
	case t.decay <= 0:
		at = t.epoch + 1
	default:
		// Analytic first k with u·decay^k < eps, then probe ±
		// against decayPow so the scheduled epoch is exact in
		// the same arithmetic usageAt will use.
		k := int64(math.Ceil(math.Log(eps/u) / t.lnDecay))
		if k < 1 {
			k = 1
		}
		for u*t.decayPow(k) >= eps {
			k++
		}
		for k > 1 && u*t.decayPow(k-1) < eps {
			k--
		}
		at = t.epoch + k
	}
	if t.death[id] == at {
		return
	}
	t.death[id] = at
	if at != neverEpoch {
		t.deaths.push(deathEntry{epoch: at, id: id})
	}
}

// Record is RecordNow. It is kept only for bench/probes.go, until the
// benchmark's fair probes call RecordNow themselves.
func (t *Tree) Record(id NodeID, amt float64) { t.RecordNow(id, amt) }

// Advance rolls the epoch forward to now's interval and reaps leaves
// whose usage decayed below eps. Unlike the legacy flat fairshare this
// is O(deaths), not O(intervals × nodes).
func (t *Tree) Advance(now sim.Time) {
	e := int64(now / sim.Time(t.interval))
	if e <= t.epoch {
		return
	}
	t.epoch = e
	for {
		ent, ok := t.deaths.peek()
		if !ok || ent.epoch > t.epoch {
			break
		}
		t.deaths.pop()
		// Stale entries (rescheduled or already-dead nodes)
		// are discarded lazily.
		if t.death[ent.id] != ent.epoch || !t.live[ent.id] {
			continue
		}
		t.kill(ent.id)
	}
}

// Factor returns the fairshare factor for a leaf: at each tree level
// the node's live-quota share minus its fraction of the parent's
// decayed usage, summed up the path. Positive means underserved.
// Over-quota weight softens (w>1) or hardens (w<1) the penalty when a
// node is above its share. A flat tree (all users under the root,
// quota 1) reduces exactly to the legacy 1/n − u/total.
func (t *Tree) Factor(id NodeID) float64 {
	if !t.live[0] {
		return 0
	}
	f := 0.0
	for n := id; ; {
		p := t.parent[n]
		if p == None {
			break
		}
		var target float64
		if lq := t.liveQ[p]; lq > 0 {
			target = t.quota[n] / lq
		}
		var actual float64
		if pu := t.usageAt(p); pu > eps {
			if u := t.usageAt(n); u > 0 {
				actual = u / pu
			}
		}
		term := target - actual
		if term < 0 {
			if w := t.overW[n]; w != 1 {
				term /= w
			}
		}
		f += term
		n = p
	}
	return f
}

// NewcomerFactor is the factor an unknown (never-recorded) user would
// get: a full root-level share with zero usage. Matches the legacy
// 1/n for a flat tree.
func (t *Tree) NewcomerFactor() float64 {
	if !t.live[0] {
		return 0
	}
	if lq := t.liveQ[0]; lq > 0 {
		return 1 / lq
	}
	return 0
}

// ChangeSerial returns the serial the next dirty entry will get.
// Consumers snapshot it, then later call DirtySince(snapshot). The
// snapshot seals the log: entries logged before it may already have
// been acted on, so a later change to the same leaf must append a new
// entry rather than coalesce into the sealed tail.
func (t *Tree) ChangeSerial() uint64 {
	t.sealed = t.serial
	return t.serial
}

// DirtySince returns the leaves whose usage changed at or after the
// given serial. ok=false means the change log was compacted past the
// serial and the consumer must do a full rebuild. The returned slice
// aliases internal storage: it is valid until the next tree mutation.
func (t *Tree) DirtySince(serial uint64) ([]NodeID, bool) {
	if serial < t.dirtyBase {
		return nil, false
	}
	if t.sealed < t.serial {
		t.sealed = t.serial
	}
	if serial >= t.serial {
		return nil, true
	}
	return t.dirty[serial-t.dirtyBase:], true
}

// logDirty appends to the change log, skipping immediate repeats of
// the same leaf — but only while the tail entry is unsealed: once a
// consumer has snapshotted past it (ChangeSerial/DirtySince), it may
// already have re-ranked that leaf, and a fresh change must get a
// fresh serial or it would be invisible to DirtySince forever.
func (t *Tree) logDirty(id NodeID) {
	if n := len(t.dirty); n > 0 && t.dirty[n-1] == id && t.serial > t.sealed {
		return
	}
	if len(t.dirty) >= 2*t.maxDirty {
		drop := len(t.dirty) - t.maxDirty
		copy(t.dirty, t.dirty[drop:])
		t.dirty = t.dirty[:t.maxDirty]
		t.dirtyBase += uint64(drop)
	}
	t.dirty = append(t.dirty, id)
	t.serial++
}

// deathHeap is a min-heap of (epoch, id) with lazy invalidation:
// entries whose epoch no longer matches death[id] are skipped on pop.
type deathHeap struct {
	a []deathEntry
}

type deathEntry struct {
	epoch int64
	id    NodeID
}

func (h *deathHeap) less(i, j int) bool {
	if h.a[i].epoch != h.a[j].epoch {
		return h.a[i].epoch < h.a[j].epoch
	}
	return h.a[i].id < h.a[j].id
}

func (h *deathHeap) push(e deathEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *deathHeap) peek() (deathEntry, bool) {
	if len(h.a) == 0 {
		return deathEntry{}, false
	}
	return h.a[0], true
}

func (h *deathHeap) pop() deathEntry {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

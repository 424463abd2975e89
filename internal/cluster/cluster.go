// Package cluster models the compute resources a batch system manages:
// nodes with a fixed number of cores, per-node allocation accounting,
// and node availability states. It is the substrate under both the
// discrete-event simulator and the live daemons (where each mom mirrors
// one Node).
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/job"
)

// NodeState captures availability of a node.
type NodeState int

const (
	// Up nodes accept allocations.
	Up NodeState = iota
	// Down nodes failed; their allocations are lost.
	Down
	// Offline nodes were drained by the administrator.
	Offline
)

var nodeStateNames = [...]string{"up", "down", "offline"}

func (s NodeState) String() string {
	if s < 0 || int(s) >= len(nodeStateNames) {
		return fmt.Sprintf("nodestate(%d)", int(s))
	}
	return nodeStateNames[s]
}

// Node is one compute node.
type Node struct {
	ID    int
	Name  string
	Cores int
	State NodeState

	used int
}

// Used returns the number of cores currently allocated on the node.
func (n *Node) Used() int { return n.used }

// Free returns the number of allocatable cores (zero when not Up).
func (n *Node) Free() int {
	if n.State != Up {
		return 0
	}
	return n.Cores - n.used
}

// Slice is one element of an Alloc: cores on a specific node.
type Slice struct {
	NodeID int
	Cores  int
}

// Alloc is a set of cores spread over one or more nodes, held by a job.
type Alloc []Slice

// TotalCores returns the number of cores in the allocation.
func (a Alloc) TotalCores() int {
	total := 0
	for _, s := range a {
		total += s.Cores
	}
	return total
}

// Nodes returns the distinct node IDs in the allocation, sorted.
func (a Alloc) Nodes() []int {
	ids := make([]int, 0, len(a))
	for _, s := range a {
		ids = append(ids, s.NodeID)
	}
	sort.Ints(ids)
	return ids
}

// String renders the allocation as "node0:4+node2:8".
func (a Alloc) String() string {
	parts := make([]string, len(a))
	for i, s := range a {
		parts[i] = fmt.Sprintf("node%d:%d", s.NodeID, s.Cores)
	}
	return strings.Join(parts, "+")
}

// MaxNodeCores is the most cores a node may have. A node's free-core
// value indexes the placement index's lookup slots and its bitset over
// values, so the bound caps those at 64 K slots and 1 K words; the
// daemons refuse a node outside [1, MaxNodeCores] before it reaches a
// cluster (ValidNodeCores).
const MaxNodeCores = 1 << 16

// ValidNodeCores reports whether a node may have cores cores.
func ValidNodeCores(cores int) bool { return cores >= 1 && cores <= MaxNodeCores }

// Cluster tracks all nodes and per-job allocations.
type Cluster struct {
	nodes  []*Node
	allocs map[job.ID]Alloc
	// idle and used are IdleCores and UsedCores, kept current by every
	// change of a node's usage or state.
	idle, used int
	// maxCores is the largest node's core count (at most MaxNodeCores),
	// the range of a node's free-core value.
	maxCores int
	// free indexes the Up nodes by free cores, in placement order.
	free freeIndex
}

// New creates a cluster of n identical Up nodes with coresPerNode cores
// each, named node0..node{n-1}.
func New(n, coresPerNode int) *Cluster {
	c := &Cluster{allocs: make(map[job.ID]Alloc)}
	for i := 0; i < n; i++ {
		c.AddNode(fmt.Sprintf("node%d", i), coresPerNode)
	}
	return c
}

// AddNode registers an additional node (live mode: moms register with
// the server one by one as they come up). Returns the new node. It
// panics on a core count above MaxNodeCores or below zero: callers
// taking it from the wire check it first.
func (c *Cluster) AddNode(name string, cores int) *Node {
	if cores < 0 || cores > MaxNodeCores {
		panic(fmt.Sprintf("cluster: node %s with %d cores, outside [0, %d]", name, cores, MaxNodeCores))
	}
	n := &Node{
		ID:    len(c.nodes),
		Name:  name,
		Cores: cores,
	}
	c.nodes = append(c.nodes, n)
	c.idle += cores
	c.maxCores = max(c.maxCores, cores)
	c.free.grow(c.maxCores)
	c.free.move(n.ID, 0, cores)
	return n
}

// NumNodes returns the number of nodes (any state).
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// Nodes returns the nodes in ID order. Callers must not mutate.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// TotalCores returns the core count over Up nodes.
func (c *Cluster) TotalCores() int {
	total := 0
	for _, n := range c.nodes {
		if n.State == Up {
			total += n.Cores
		}
	}
	return total
}

// IdleCores returns the number of free cores over Up nodes.
func (c *Cluster) IdleCores() int { return c.idle }

// UsedCores returns the number of allocated cores on Up nodes.
func (c *Cluster) UsedCores() int { return c.used }

// AllocOf returns the allocation currently held by the job (nil if none).
func (c *Cluster) AllocOf(id job.ID) Alloc { return c.allocs[id] }

// Allocate finds cores free cores for the job and marks them used.
// Placement policy: fill the emptiest nodes first, which keeps jobs on
// few nodes (good for a node-attached workload like MPI) and matches
// the "exclusive-ish" placement Torque's node allocation produces; ties
// go to the lower node ID. The walk visits free-core values from the
// largest down and stops once the request is covered: one pass over the
// values counts the nodes taken, one over their bits fills the Alloc.
// It returns nil (and changes nothing) when not enough cores are free.
func (c *Cluster) Allocate(id job.ID, cores int) Alloc {
	if cores <= 0 || c.idle < cores {
		return nil
	}
	k, rest := 0, cores
	for v := c.free.below(c.maxCores); rest > 0; v = c.free.below(v - 1) {
		n := c.free.bucket(v).n
		if rest <= v*n {
			k += (rest + v - 1) / v
			break
		}
		k += n
		rest -= v * n
	}
	alloc := make(Alloc, 0, k)
	rest = cores
	for v := c.free.below(c.maxCores); rest > 0; v = c.free.below(v - 1) {
		b := c.free.bucket(v)
		for n := b.next(0); n >= 0 && rest > 0; n = b.next(n + 1) {
			take := min(v, rest)
			alloc = append(alloc, Slice{NodeID: n, Cores: take})
			rest -= take
		}
	}
	c.apply(id, alloc)
	return alloc
}

// AllocateNodes finds nodes nodes with ppn free cores each (the Torque
// "nodes=N:ppn=P" request form) and marks them used. Whole idle nodes
// are preferred, then the lower node ID. Returns nil when the request
// cannot be placed.
func (c *Cluster) AllocateNodes(id job.ID, nodes, ppn int) Alloc {
	if nodes <= 0 || ppn <= 0 {
		return nil
	}
	found := 0
	for v := c.free.below(c.maxCores); v >= ppn && found < nodes; v = c.free.below(v - 1) {
		found += c.free.bucket(v).n
	}
	if found < nodes {
		return nil
	}
	alloc := make(Alloc, 0, nodes)
	for v := c.free.below(c.maxCores); len(alloc) < nodes; v = c.free.below(v - 1) {
		b := c.free.bucket(v)
		for n := b.next(0); n >= 0 && len(alloc) < nodes; n = b.next(n + 1) {
			alloc = append(alloc, Slice{NodeID: n, Cores: ppn})
		}
	}
	c.apply(id, alloc)
	return alloc
}

// AllocateOn marks cores cores used on one given node, mirroring a
// placement decided elsewhere. Returns nil, changing nothing, when the
// node is not Up or lacks the room.
func (c *Cluster) AllocateOn(id job.ID, nodeID, cores int) Alloc {
	n := c.Node(nodeID)
	if n == nil || cores <= 0 || n.Free() < cores {
		return nil
	}
	alloc := Alloc{{NodeID: nodeID, Cores: cores}}
	c.apply(id, alloc)
	return alloc
}

// apply holds alloc's cores for the job. A job that held nothing keeps
// alloc itself, which is the caller's slice too; a later grant appends
// to a copy, as alloc has no spare capacity.
func (c *Cluster) apply(id job.ID, alloc Alloc) {
	for _, s := range alloc {
		c.hold(c.nodes[s.NodeID], s.Cores)
	}
	if held, ok := c.allocs[id]; ok {
		alloc = append(held, alloc...)
	}
	c.allocs[id] = alloc
}

// hold changes the cores in use on node n by delta, keeping the
// cluster's idle and used counts and the placement index current.
func (c *Cluster) hold(n *Node, delta int) {
	if n.State == Up {
		c.free.move(n.ID, n.Free(), n.Free()-delta)
		c.idle -= delta
		c.used += delta
	}
	n.used += delta
}

// Release frees every core held by the job.
func (c *Cluster) Release(id job.ID) {
	for _, s := range c.allocs[id] {
		c.hold(c.nodes[s.NodeID], -s.Cores)
	}
	delete(c.allocs, id)
}

// ReleasePartial frees a subset of the job's allocation — the paper's
// dyn_disjoin: jobs may release *any subset* of their allocation, not
// only whole prior dynamic grants (unlike SLURM's restriction, §V).
// It returns an error if the job does not hold the given cores.
func (c *Cluster) ReleasePartial(id job.ID, part Alloc) error {
	held := c.allocs[id]
	heldPer := make(map[int]int)
	for _, s := range held {
		heldPer[s.NodeID] += s.Cores
	}
	for _, s := range part {
		if heldPer[s.NodeID] < s.Cores {
			return fmt.Errorf("cluster: %s does not hold %d cores on node%d", id, s.Cores, s.NodeID)
		}
		heldPer[s.NodeID] -= s.Cores
	}
	// Apply.
	for _, s := range part {
		c.hold(c.nodes[s.NodeID], -s.Cores)
	}
	var remaining Alloc
	for nodeID, cores := range heldPer {
		if cores > 0 {
			remaining = append(remaining, Slice{NodeID: nodeID, Cores: cores})
		}
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].NodeID < remaining[j].NodeID })
	if len(remaining) == 0 {
		delete(c.allocs, id)
	} else {
		c.allocs[id] = remaining
	}
	return nil
}

// SetNodeState changes a node's availability. Marking a node Down or
// Offline does not release allocations; the resource manager decides
// what to do with the jobs holding cores there (AllocOf names them).
func (c *Cluster) SetNodeState(nodeID int, s NodeState) {
	n := c.Node(nodeID)
	if n == nil {
		return
	}
	if was := n.State == Up; was != (s == Up) {
		sign := 1
		if was {
			sign = -1
		}
		c.idle += sign * (n.Cores - n.used)
		c.used += sign * n.used
	}
	free := n.Free()
	n.State = s
	c.free.move(n.ID, free, n.Free())
}

// Snapshot returns free cores per node (index = node ID); used by the
// scheduler to plan without mutating live state.
func (c *Cluster) Snapshot() []int {
	free := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		free[i] = n.Free()
	}
	return free
}

// CheckInvariants recounts every node's usage from the allocations and
// compares it, and the idle/used totals, with the kept counts, and holds
// the placement index to the nodes' free cores; tests call it after
// mutation sequences.
func (c *Cluster) CheckInvariants() error {
	perNode := make(map[int]int)
	idle, used := 0, 0
	for id, alloc := range c.allocs {
		for _, s := range alloc {
			if s.Cores <= 0 {
				return fmt.Errorf("job %s holds non-positive slice on node%d", id, s.NodeID)
			}
			perNode[s.NodeID] += s.Cores
		}
	}
	for _, n := range c.nodes {
		if perNode[n.ID] != n.used {
			return fmt.Errorf("node%d: used=%d but allocations sum to %d", n.ID, n.used, perNode[n.ID])
		}
		if n.used < 0 || n.used > n.Cores {
			return fmt.Errorf("node%d: used=%d out of range", n.ID, n.used)
		}
		if n.State == Up {
			idle += n.Cores - n.used
			used += n.used
		}
	}
	if idle != c.idle || used != c.used {
		return fmt.Errorf("idle/used cores counted %d/%d, nodes sum to %d/%d", c.idle, c.used, idle, used)
	}
	return c.free.check(c.nodes)
}

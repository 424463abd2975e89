// Package cluster models the compute resources a batch system manages:
// nodes with a fixed number of cores, per-node allocation accounting,
// and node availability states. It is the substrate under both the
// discrete-event simulator and the live daemons (where each mom mirrors
// one Node).
package cluster

import (
	"fmt"
	"slices"
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

	used  int
	owner map[job.ID]int // cores held per job on this node
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

// HeldBy returns the cores job id holds on this node.
func (n *Node) HeldBy(id job.ID) int { return n.owner[id] }

// Jobs returns the IDs of jobs holding cores on this node, sorted.
func (n *Node) Jobs() []job.ID {
	ids := make([]job.ID, 0, len(n.owner))
	for id := range n.owner {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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

// Cluster tracks all nodes and per-job allocations.
type Cluster struct {
	nodes  []*Node
	allocs map[job.ID]Alloc
	order  []*Node // Allocate's candidate scratch
}

// New creates a cluster of n identical Up nodes with coresPerNode cores
// each, named node0..node{n-1}.
func New(n, coresPerNode int) *Cluster {
	c := &Cluster{allocs: make(map[job.ID]Alloc)}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &Node{
			ID:    i,
			Name:  fmt.Sprintf("node%d", i),
			Cores: coresPerNode,
			owner: make(map[job.ID]int),
		})
	}
	return c
}

// AddNode registers an additional node (live mode: moms register with
// the server one by one as they come up). Returns the new node.
func (c *Cluster) AddNode(name string, cores int) *Node {
	n := &Node{
		ID:    len(c.nodes),
		Name:  name,
		Cores: cores,
		owner: make(map[job.ID]int),
	}
	c.nodes = append(c.nodes, n)
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
func (c *Cluster) IdleCores() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Free()
	}
	return total
}

// UsedCores returns the number of allocated cores on Up nodes.
func (c *Cluster) UsedCores() int {
	total := 0
	for _, n := range c.nodes {
		if n.State == Up {
			total += n.used
		}
	}
	return total
}

// AllocOf returns the allocation currently held by the job (nil if none).
func (c *Cluster) AllocOf(id job.ID) Alloc { return c.allocs[id] }

// Allocate finds cores free cores for the job and marks them used.
// Placement policy: fill the emptiest nodes first, which keeps jobs on
// few nodes (good for a node-attached workload like MPI) and matches
// the "exclusive-ish" placement Torque's node allocation produces.
// It returns nil (and changes nothing) when not enough cores are free.
func (c *Cluster) Allocate(id job.ID, cores int) Alloc {
	if cores <= 0 || c.IdleCores() < cores {
		return nil
	}
	// Sort candidate nodes by descending free cores, ID ascending for
	// determinism.
	order := c.order[:0]
	for _, n := range c.nodes {
		if n.Free() > 0 {
			order = append(order, n)
		}
	}
	c.order = order
	slices.SortFunc(order, func(a, b *Node) int {
		if a.Free() != b.Free() {
			return b.Free() - a.Free()
		}
		return a.ID - b.ID
	})
	var alloc Alloc
	remaining := cores
	for _, n := range order {
		take := n.Free()
		if take > remaining {
			take = remaining
		}
		alloc = append(alloc, Slice{NodeID: n.ID, Cores: take})
		remaining -= take
		if remaining == 0 {
			break
		}
	}
	if remaining > 0 {
		return nil // unreachable given the IdleCores check, kept for safety
	}
	c.apply(id, alloc)
	return alloc
}

// AllocateNodes finds nodes nodes with ppn free cores each (the Torque
// "nodes=N:ppn=P" request form) and marks them used. Whole idle nodes
// are preferred. Returns nil when the request cannot be placed.
func (c *Cluster) AllocateNodes(id job.ID, nodes, ppn int) Alloc {
	if nodes <= 0 || ppn <= 0 {
		return nil
	}
	candidates := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Free() >= ppn {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) < nodes {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Free() != candidates[j].Free() {
			return candidates[i].Free() > candidates[j].Free()
		}
		return candidates[i].ID < candidates[j].ID
	})
	var alloc Alloc
	for _, n := range candidates[:nodes] {
		alloc = append(alloc, Slice{NodeID: n.ID, Cores: ppn})
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

func (c *Cluster) apply(id job.ID, alloc Alloc) {
	for _, s := range alloc {
		n := c.nodes[s.NodeID]
		n.used += s.Cores
		n.owner[id] += s.Cores
	}
	c.allocs[id] = append(c.allocs[id], alloc...)
}

// Release frees every core held by the job.
func (c *Cluster) Release(id job.ID) {
	alloc := c.allocs[id]
	for _, s := range alloc {
		n := c.nodes[s.NodeID]
		n.used -= s.Cores
		if n.owner[id] -= s.Cores; n.owner[id] <= 0 {
			delete(n.owner, id)
		}
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
		n := c.nodes[s.NodeID]
		n.used -= s.Cores
		if n.owner[id] -= s.Cores; n.owner[id] <= 0 {
			delete(n.owner, id)
		}
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
// Offline does not release allocations automatically; the RMS decides
// what to do with affected jobs (it returns their IDs).
func (c *Cluster) SetNodeState(nodeID int, s NodeState) []job.ID {
	n := c.Node(nodeID)
	if n == nil {
		return nil
	}
	n.State = s
	if s == Up {
		return nil
	}
	return n.Jobs()
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

// CheckInvariants validates internal accounting; tests call it after
// mutation sequences.
func (c *Cluster) CheckInvariants() error {
	perNode := make(map[int]int)
	for id, alloc := range c.allocs {
		seen := make(map[int]int)
		for _, s := range alloc {
			if s.Cores <= 0 {
				return fmt.Errorf("job %s holds non-positive slice on node%d", id, s.NodeID)
			}
			perNode[s.NodeID] += s.Cores
			seen[s.NodeID] += s.Cores
		}
		for nodeID, cores := range seen {
			if c.nodes[nodeID].owner[id] != cores {
				return fmt.Errorf("job %s: alloc says %d cores on node%d, node says %d",
					id, cores, nodeID, c.nodes[nodeID].owner[id])
			}
		}
	}
	for _, n := range c.nodes {
		if perNode[n.ID] != n.used {
			return fmt.Errorf("node%d: used=%d but allocations sum to %d", n.ID, n.used, perNode[n.ID])
		}
		if n.used < 0 || n.used > n.Cores {
			return fmt.Errorf("node%d: used=%d out of range", n.ID, n.used)
		}
	}
	return nil
}

package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/job"
)

func TestNewCluster(t *testing.T) {
	c := New(15, 8)
	if c.NumNodes() != 15 {
		t.Fatalf("nodes = %d", c.NumNodes())
	}
	if c.TotalCores() != 120 {
		t.Fatalf("total cores = %d", c.TotalCores())
	}
	if c.IdleCores() != 120 || c.UsedCores() != 0 {
		t.Fatal("fresh cluster should be fully idle")
	}
	if c.Node(0).Name != "node0" || c.Node(14).Name != "node14" {
		t.Error("node naming")
	}
	if c.Node(-1) != nil || c.Node(15) != nil {
		t.Error("out-of-range Node() should be nil")
	}
}

func TestAllocateRelease(t *testing.T) {
	c := New(4, 8)
	a := c.Allocate(1, 12)
	if a == nil || a.TotalCores() != 12 {
		t.Fatalf("alloc = %v", a)
	}
	if c.IdleCores() != 20 || c.UsedCores() != 12 {
		t.Errorf("idle=%d used=%d", c.IdleCores(), c.UsedCores())
	}
	if got := c.AllocOf(1).TotalCores(); got != 12 {
		t.Errorf("AllocOf = %d", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Release(1)
	if c.IdleCores() != 32 {
		t.Errorf("idle after release = %d", c.IdleCores())
	}
	if c.AllocOf(1) != nil {
		t.Error("AllocOf after release should be nil")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	c := New(2, 8)
	if a := c.Allocate(1, 17); a != nil {
		t.Fatal("allocation should fail")
	}
	if c.UsedCores() != 0 {
		t.Error("failed allocation must not leak cores")
	}
	if a := c.Allocate(1, 0); a != nil {
		t.Error("zero-core allocation should fail")
	}
	if a := c.Allocate(1, -3); a != nil {
		t.Error("negative allocation should fail")
	}
}

func TestAllocatePrefersEmptiestNodes(t *testing.T) {
	c := New(3, 8)
	c.Allocate(1, 6) // fills one node to 6/8
	a := c.Allocate(2, 8)
	// Job 2 should land on a fully idle node, not straddle.
	if len(a) != 1 {
		t.Errorf("8-core alloc should fit one idle node, got %v", a)
	}
}

func TestAllocateNodes(t *testing.T) {
	c := New(4, 8)
	a := c.AllocateNodes(1, 2, 8)
	if a == nil || a.TotalCores() != 16 || len(a) != 2 {
		t.Fatalf("alloc = %v", a)
	}
	for _, s := range a {
		if s.Cores != 8 {
			t.Errorf("ppn violated: %v", a)
		}
	}
	// Only 2 idle nodes remain; a 3-node request must fail cleanly.
	if got := c.AllocateNodes(2, 3, 8); got != nil {
		t.Error("over-subscribed node request should fail")
	}
	if got := c.AllocateNodes(2, 2, 4); got == nil {
		t.Error("2 nodes x 4 ppn should fit on remaining idle nodes")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.AllocateNodes(3, 0, 8) != nil || c.AllocateNodes(3, 2, 0) != nil {
		t.Error("degenerate node requests should fail")
	}
}

func TestGrowAllocation(t *testing.T) {
	c := New(4, 8)
	c.Allocate(1, 8)
	grow := c.Allocate(1, 4)
	if grow == nil {
		t.Fatal("grow failed")
	}
	if got := c.AllocOf(1).TotalCores(); got != 12 {
		t.Errorf("total after grow = %d, want 12", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Release(1)
	if c.IdleCores() != 32 {
		t.Error("release after grow must free everything")
	}
}

func TestReleasePartial(t *testing.T) {
	c := New(4, 8)
	c.Allocate(1, 8)
	c.Allocate(1, 8) // grow to two nodes
	alloc := c.AllocOf(1)
	nodes := alloc.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("expected 2 nodes, got %v", alloc)
	}
	// Release half of one node: an arbitrary subset, which SLURM would
	// not allow but our system does.
	if err := c.ReleasePartial(1, Alloc{{NodeID: nodes[0], Cores: 4}}); err != nil {
		t.Fatal(err)
	}
	if got := c.AllocOf(1).TotalCores(); got != 12 {
		t.Errorf("after partial release total = %d, want 12", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Releasing more than held must fail atomically.
	if err := c.ReleasePartial(1, Alloc{{NodeID: nodes[0], Cores: 100}}); err == nil {
		t.Error("over-release should error")
	}
	if got := c.AllocOf(1).TotalCores(); got != 12 {
		t.Error("failed partial release must not change state")
	}
	// Release everything that is left.
	rest := c.AllocOf(1)
	if err := c.ReleasePartial(1, rest); err != nil {
		t.Fatal(err)
	}
	if c.AllocOf(1) != nil {
		t.Error("full partial release should clear allocation")
	}
	if c.IdleCores() != 32 {
		t.Errorf("idle = %d", c.IdleCores())
	}
}

func TestNodeStates(t *testing.T) {
	c := New(3, 8)
	c.Allocate(1, 8)
	// Find the node job 1 landed on.
	nodeID := c.AllocOf(1)[0].NodeID
	c.SetNodeState(nodeID, Down)
	if a := c.AllocOf(1); len(a) != 1 || a[0].NodeID != nodeID || a[0].Cores != 8 {
		t.Errorf("a down node keeps its allocations; job 1 holds %v", a)
	}
	if c.TotalCores() != 16 {
		t.Errorf("total cores with one down node = %d", c.TotalCores())
	}
	if c.Node(nodeID).Free() != 0 {
		t.Error("down node must report zero free")
	}
	c.SetNodeState(nodeID, Up)
	if c.TotalCores() != 24 {
		t.Error("node back up")
	}
	c.SetNodeState(99, Down) // a bogus node id is a no-op
	if c.TotalCores() != 24 || c.CheckInvariants() != nil {
		t.Error("bogus node id should be a no-op")
	}
	if Up.String() != "up" || Down.String() != "down" || Offline.String() != "offline" {
		t.Error("state stringer")
	}
	if NodeState(9).String() != "nodestate(9)" {
		t.Error("out-of-range state stringer")
	}
}

func TestAllocString(t *testing.T) {
	a := Alloc{{NodeID: 0, Cores: 4}, {NodeID: 2, Cores: 8}}
	if a.String() != "node0:4+node2:8" {
		t.Errorf("String = %q", a.String())
	}
	if got := a.Nodes(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Nodes = %v", got)
	}
}

func TestSnapshot(t *testing.T) {
	c := New(3, 8)
	c.Allocate(1, 5)
	snap := c.Snapshot()
	sum := 0
	for _, f := range snap {
		sum += f
	}
	if sum != c.IdleCores() {
		t.Errorf("snapshot sum %d != idle %d", sum, c.IdleCores())
	}
	// Snapshot must be a copy.
	snap[0] = -99
	if c.Node(0).Free() == -99 {
		t.Error("snapshot aliases live state")
	}
}

// Property: after any random sequence of allocate/release operations,
// the cluster invariants hold and idle+used == total.
func TestClusterAccountingProperty(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(5, 8)
		live := map[job.ID]bool{}
		next := job.ID(1)
		for i := 0; i < int(ops); i++ {
			if rng.Intn(3) == 0 && len(live) > 0 {
				// Release a random live job.
				for id := range live {
					c.Release(id)
					delete(live, id)
					break
				}
			} else {
				id := next
				next++
				if c.Allocate(id, 1+rng.Intn(12)) != nil {
					live[id] = true
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
			if c.IdleCores()+c.UsedCores() != c.TotalCores() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// recount is IdleCores and UsedCores the long way, node by node.
func recount(c *Cluster) (idle, used int) {
	for _, n := range c.nodes {
		if n.State == Up {
			idle += n.Cores - n.used
			used += n.used
		}
	}
	return idle, used
}

// placementOrder is the placement order by comparison sort: the nodes
// with at least least free cores, emptiest first, then by ascending ID.
// It is the oracle the free-core index behind Allocate and AllocateNodes
// is held to.
func placementOrder(c *Cluster, least int) []*Node {
	var order []*Node
	for _, n := range c.nodes {
		if n.Free() >= least {
			order = append(order, n)
		}
	}
	slices.SortFunc(order, func(a, b *Node) int {
		if a.Free() != b.Free() {
			return b.Free() - a.Free()
		}
		return a.ID - b.ID
	})
	return order
}

// sortAllocate returns the slices Allocate must make, changing nothing.
func sortAllocate(c *Cluster, cores int) Alloc {
	if idle, _ := recount(c); cores <= 0 || idle < cores {
		return nil
	}
	var alloc Alloc
	for _, n := range placementOrder(c, 1) {
		take := min(n.Free(), cores)
		alloc = append(alloc, Slice{NodeID: n.ID, Cores: take})
		if cores -= take; cores == 0 {
			break
		}
	}
	return alloc
}

// sortAllocateNodes returns the slices AllocateNodes must make.
func sortAllocateNodes(c *Cluster, nodes, ppn int) Alloc {
	order := placementOrder(c, max(ppn, 1))
	if nodes <= 0 || ppn <= 0 || len(order) < nodes {
		return nil
	}
	var alloc Alloc
	for _, n := range order[:nodes] {
		alloc = append(alloc, Slice{NodeID: n.ID, Cores: ppn})
	}
	return alloc
}

// TestCountersAndPlacement drives a cluster of mixed node sizes — on
// odd seeds with one MaxNodeCores node among them — through random
// placements (Allocate, AllocateNodes, AllocateOn), releases (whole and
// partial), node state changes (Down, Offline, back Up, with jobs on
// them) and late node registrations, and after every step requires the
// kept idle and used counts to equal a recount over the nodes, the
// free-core index to match the nodes (CheckInvariants), and every
// placement to be the one the sort-based order gives.
func TestCountersAndPlacement(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(3+rng.Intn(20), 1+rng.Intn(16))
		if seed%2 == 1 {
			c.AddNode("big", MaxNodeCores)
		}
		// scale draws a request size bound: mostly the small nodes'
		// range, so that the big node does not take every request.
		scale := func() int {
			if rng.Intn(4) == 0 {
				return c.maxCores
			}
			return min(c.maxCores, 24)
		}
		var live []job.ID
		next := job.ID(1)
		placed := func(op string, id job.ID, got, want Alloc) {
			t.Helper()
			if got.String() != want.String() {
				t.Fatalf("seed %d: %s for job %d placed %v, the sorted order gives %v", seed, op, id, got, want)
			}
			if got != nil {
				live = append(live, id)
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				cores := rng.Intn(3 * scale())
				want := sortAllocate(c, cores)
				placed("Allocate", next, c.Allocate(next, cores), want)
				next++
			case op < 4:
				nodes, ppn := rng.Intn(4), rng.Intn(scale()+2)
				want := sortAllocateNodes(c, nodes, ppn)
				placed("AllocateNodes", next, c.AllocateNodes(next, nodes, ppn), want)
				next++
			case op < 5:
				n := c.nodes[rng.Intn(len(c.nodes))]
				cores := 1 + rng.Intn(min(n.Cores, scale()))
				var want Alloc
				if n.Free() >= cores {
					want = Alloc{{NodeID: n.ID, Cores: cores}}
				}
				placed("AllocateOn", next, c.AllocateOn(next, n.ID, cores), want)
				next++
			case op < 7 && len(live) > 0:
				k := rng.Intn(len(live))
				id := live[k]
				if held := c.AllocOf(id); len(held) > 0 && rng.Intn(2) == 0 {
					s := held[rng.Intn(len(held))]
					if err := c.ReleasePartial(id, Alloc{{NodeID: s.NodeID, Cores: 1 + rng.Intn(s.Cores)}}); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				} else {
					c.Release(id)
				}
				if c.AllocOf(id) == nil {
					live = append(live[:k], live[k+1:]...)
				}
			case op < 9:
				c.SetNodeState(rng.Intn(len(c.nodes)), NodeState(rng.Intn(3)))
			default:
				c.AddNode(fmt.Sprintf("late%d", step), 1+rng.Intn(24))
			}
			idle, used := recount(c)
			if c.IdleCores() != idle || c.UsedCores() != used {
				t.Fatalf("seed %d step %d: idle/used %d/%d, nodes sum to %d/%d", seed, step, c.IdleCores(), c.UsedCores(), idle, used)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestCheckInvariantsCountsCores requires CheckInvariants to notice
// counters that drifted from the nodes.
func TestCheckInvariantsCountsCores(t *testing.T) {
	c := New(2, 8)
	c.Allocate(1, 5)
	c.idle++
	if c.CheckInvariants() == nil {
		t.Error("a drifted idle count must fail the check")
	}
	c.idle--
	c.used--
	if c.CheckInvariants() == nil {
		t.Error("a drifted used count must fail the check")
	}
}

// TestNodeCoreBound: a node may have up to MaxNodeCores cores, and
// placement works at that size; a larger node is refused rather than
// sizing the free-core index's slots by it.
func TestNodeCoreBound(t *testing.T) {
	for cores, want := range map[int]bool{-1: false, 0: false, 1: true, MaxNodeCores: true, MaxNodeCores + 1: false} {
		if ValidNodeCores(cores) != want {
			t.Errorf("ValidNodeCores(%d) = %v", cores, !want)
		}
	}
	c := New(2, 8)
	c.AddNode("big", MaxNodeCores)
	if a := c.Allocate(1, MaxNodeCores+4); a.TotalCores() != MaxNodeCores+4 || a[0].NodeID != 2 {
		t.Fatalf("allocation on the biggest node = %v", a)
	}
	// The overflow took 4 of node0's cores, so node1 is the emptiest.
	if a := c.AllocateNodes(2, 2, 2); len(a) != 2 || a[0].NodeID != 1 || a[1].NodeID != 0 {
		t.Fatalf("node allocation beside it = %v", a)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a node beyond MaxNodeCores must be refused")
		}
	}()
	c.AddNode("huge", MaxNodeCores+1)
}

// TestFreeIndexChurn holds and releases cores on one MaxNodeCores node
// beside 1,000 8-core nodes, 10,000 times at random, and requires the
// index to keep one bucket per free value present (an emptied bucket is
// reused, not kept or reallocated), bitsets no longer than the node
// count needs, and placements that match the sort-based order.
func TestFreeIndexChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(1000, 8)
	big := c.AddNode("big", MaxNodeCores)
	next := job.ID(1)
	var live []job.ID
	peak := 0
	observe := func(step int) {
		t.Helper()
		distinct := map[int]bool{}
		for _, n := range c.nodes {
			if f := n.Free(); f > 0 {
				distinct[f] = true
			}
		}
		peak = max(peak, len(distinct))
		x := &c.free
		if kept := len(x.buckets) - len(x.spare); kept != len(distinct) {
			t.Fatalf("step %d: %d buckets in use for %d free values", step, kept, len(distinct))
		}
		if len(x.buckets) > peak {
			t.Fatalf("step %d: %d buckets, at most %d values were ever present at once", step, len(x.buckets), peak)
		}
		for _, b := range x.buckets {
			if len(b.ids) > (len(c.nodes)+63)/64 {
				t.Fatalf("step %d: a bucket of %d words for %d nodes", step, len(b.ids), len(c.nodes))
			}
		}
	}
	for step := 0; step < 10000; step++ {
		switch {
		case step%100 == 99:
			cores := 1 + rng.Intn(64)
			want := sortAllocate(c, cores)
			if got := c.Allocate(next, cores); got.String() != want.String() {
				t.Fatalf("step %d: Allocate(%d) placed %v, the sorted order gives %v", step, cores, got, want)
			}
			observe(step)
			c.Release(next)
			next++
		case big.Free() > 0 && (len(live) == 0 || rng.Intn(2) == 0):
			if c.AllocateOn(next, big.ID, 1+rng.Intn(min(big.Free(), 4096))) == nil {
				t.Fatalf("step %d: hold on the big node failed", step)
			}
			live = append(live, next)
			next++
		default:
			k := rng.Intn(len(live))
			id := live[k]
			if held := c.AllocOf(id)[0].Cores; held > 1 && rng.Intn(2) == 0 {
				if err := c.ReleasePartial(id, Alloc{{NodeID: big.ID, Cores: 1 + rng.Intn(held-1)}}); err != nil {
					t.Fatal(err)
				}
				break
			}
			c.Release(id)
			live = append(live[:k], live[k+1:]...)
		}
		observe(step)
		if step%100 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if peak > 3 {
		t.Errorf("%d free values present at once; 8, the big node's and one partly taken node's are the most", peak)
	}
}

// TestPlacementAllocs pins placement's allocations on a half-full
// 600 × 8 cluster whose nodes are filled at random: Allocate and
// AllocateNodes make the Alloc they return, at its exact size, and
// nothing else, and Release makes none.
func TestPlacementAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(600, 8)
	next := job.ID(1)
	for c.UsedCores() < c.IdleCores() {
		c.AllocateOn(next, rng.Intn(600), 1+rng.Intn(8))
		next++
	}
	const runs = 100
	for _, tc := range []struct {
		name  string
		place func(job.ID) Alloc
	}{
		{"Allocate", func(id job.ID) Alloc { return c.Allocate(id, 21) }},
		{"AllocateNodes", func(id job.ID) Alloc { return c.AllocateNodes(id, 3, 4) }},
	} {
		// One round first, so that the allocation map and the index's
		// buckets have the room the measured rounds need.
		first := next
		for i := 0; i <= runs; i++ {
			tc.place(first + job.ID(i))
		}
		for i := 0; i <= runs; i++ {
			c.Release(first + job.ID(i))
		}
		id := first
		if got := testing.AllocsPerRun(runs, func() {
			if a := tc.place(id); a == nil || cap(a) != len(a) {
				t.Fatalf("%s for job %d returned %v with capacity %d", tc.name, id, a, cap(a))
			}
			id++
		}); got != 1 {
			t.Errorf("%s allocates %.2f times per call, want 1 (its Alloc)", tc.name, got)
		}
		id = first
		if got := testing.AllocsPerRun(runs, func() {
			c.Release(id)
			id++
		}); got != 0 {
			t.Errorf("Release after %s allocates %.2f times per call, want 0", tc.name, got)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		next += runs + 1
	}
}

// TestAllocIsNotAliased: the cluster keeps the Alloc that Allocate
// returns to a job that held nothing, without a copy; a later grant, a
// partial release and the full release must still leave the caller's
// slice as it was returned.
func TestAllocIsNotAliased(t *testing.T) {
	c := New(4, 8)
	a := c.Allocate(1, 12)
	want := a.String()
	if held := c.AllocOf(1); &held[0] != &a[0] {
		t.Error("the first placement is kept as returned, without a copy")
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"a grant", func() { c.Allocate(1, 6) }},
		{"a partial release", func() {
			if err := c.ReleasePartial(1, Alloc{{NodeID: a[0].NodeID, Cores: 3}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"the release", func() { c.Release(1) }},
	}
	for _, st := range steps {
		st.do()
		if a.String() != want {
			t.Fatalf("after %s the returned Alloc reads %v, was %s", st.name, a, want)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

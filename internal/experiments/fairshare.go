package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/fairtree"
	"repro/internal/sim"
)

// FairshareOpts parameterizes the fairshare-at-scale stress campaign:
// a hierarchical share tree of Queues group nodes under the root with
// Users leaves spread round-robin across them, driven for Epochs decay
// intervals of usage charges.
type FairshareOpts struct {
	// Users is the number of distinct user leaves (paper-scale target:
	// one million).
	Users int
	// Queues is the number of group nodes the users are homed under.
	Queues int
	// Epochs is how many decay intervals the campaign simulates.
	Epochs int
	// RecordsPerEpoch is how many usage charges arrive per interval.
	RecordsPerEpoch int
	// Workers is the number of goroutines that generate the charges.
	// The result — factors, history stream, top-k — is byte-identical
	// at any worker count: each worker stages its charges in its own
	// part of one slice, and the tree's owner applies them in sorted
	// order.
	Workers int
	// Decay is the per-interval usage decay (default 0.5).
	Decay float64
	// Interval is the decay interval in simulation time.
	Interval sim.Duration
	// Clock supplies phase timings. This package must not read the
	// wall clock directly (schedlint nodeterminism); esprun injects
	// clock.Wall, tests a clock.Fake. Nil defaults to clock.Wall.
	Clock clock.Clock
	// History, when non-nil, receives the allocation-history stream
	// (one snapshot per node per epoch, depth-limited by HistoryDepth).
	History       io.Writer
	HistoryFormat fairtree.HistoryFormat
	// HistoryDepth limits history rows to nodes at depth <= this
	// (0 = no limit; 1 = group nodes only).
	HistoryDepth int
	// OnProgress, when non-nil, is called after each completed epoch.
	OnProgress func(done, total int)
}

// DefaultFairshareOpts is the issue-scale stress: 1M users across 10k
// queues, three decay intervals of one million charges each.
func DefaultFairshareOpts() FairshareOpts {
	return FairshareOpts{
		Users:           1_000_000,
		Queues:          10_000,
		Epochs:          3,
		RecordsPerEpoch: 1_000_000,
		Workers:         1,
		Decay:           0.5,
		Interval:        sim.Hour,
		Clock:           clock.Wall{},
	}
}

// FairshareResult carries the campaign counters and phase timings.
type FairshareResult struct {
	Users, Queues, Epochs int
	Records               int64
	LiveLeaves            int
	NumNodes              int

	BuildNS   int64 // tree construction (interning + homing)
	RecordNS  int64 // staging every charge across workers, then applying them
	AdvanceNS int64 // all Advance calls (epoch roll)
	FactorNS  int64 // one Factor call per user leaf
	TopKNS    int64 // one TopK(10) walk

	// FactorChecksum is the sum of every leaf's factor after the final
	// epoch — a deterministic fingerprint that must not vary with the
	// worker count.
	FactorChecksum float64
	// Top holds the heaviest leaves (paths) after the final epoch,
	// heaviest first.
	Top []string
}

// splitmix64 is the charge-schedule hash: deterministic, stateless,
// and independent of how record indices are partitioned over workers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// charge is one staged usage charge.
type charge struct {
	id  fairtree.NodeID
	amt float64
}

// applyCharges sorts the staged charges by (id, amt) and records one
// sum per leaf, in ascending id order. The order of the float sums is
// then fixed by the multiset of charges alone, whichever worker staged
// each one.
func applyCharges(tree *fairtree.Tree, cs []charge) {
	slices.SortFunc(cs, func(a, b charge) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.amt, b.amt)
	})
	for i := 0; i < len(cs); {
		id, sum := cs[i].id, 0.0
		for ; i < len(cs) && cs[i].id == id; i++ {
			sum += cs[i].amt
		}
		tree.RecordNow(id, sum)
	}
}

// RunFairshare executes the stress campaign and returns its counters.
// Records are split into Workers contiguous blocks, each staged by one
// goroutine; each charge is a pure function of (epoch, record index),
// and the staged charges are applied in sorted order before each
// Advance, so every factor, history row and ranking is identical no
// matter how many workers ran.
func RunFairshare(opts FairshareOpts) (FairshareResult, error) {
	if opts.Users <= 0 || opts.Queues <= 0 {
		return FairshareResult{}, fmt.Errorf("fairshare campaign: users and queues must be positive (got %d, %d)", opts.Users, opts.Queues)
	}
	if opts.Queues > opts.Users {
		opts.Queues = opts.Users
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if opts.RecordsPerEpoch <= 0 {
		opts.RecordsPerEpoch = opts.Users
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Decay < 0 || opts.Decay > 1 {
		return FairshareResult{}, fmt.Errorf("fairshare campaign: decay %g outside [0,1]", opts.Decay)
	}
	if opts.Interval <= 0 {
		opts.Interval = sim.Hour
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.Wall{}
	}
	res := FairshareResult{Users: opts.Users, Queues: opts.Queues, Epochs: opts.Epochs}

	// Build: queue groups under the root, user leaves round-robin
	// under the groups. Quotas cycle 1..4 so the hierarchy exercises
	// the non-uniform-target paths, not just the degenerate flat case.
	t0 := clk.Now()
	tree := fairtree.New(fairtree.Options{Interval: opts.Interval, Decay: opts.Decay})
	tree.EnableRanking()
	groups := make([]fairtree.NodeID, opts.Queues)
	for g := range groups {
		groups[g] = tree.Child(tree.Root(), fmt.Sprintf("q%05d", g))
		tree.SetQuota(groups[g], float64(1+g%4))
	}
	leaves := make([]fairtree.NodeID, opts.Users)
	for u := range leaves {
		leaves[u] = tree.Child(groups[u%opts.Queues], fmt.Sprintf("u%07d", u))
	}
	res.BuildNS = int64(clk.Since(t0))
	res.NumNodes = tree.NumNodes()

	var hist *fairtree.HistoryWriter
	if opts.History != nil {
		hist = fairtree.NewHistoryWriter(opts.History, opts.HistoryFormat)
	}

	staged := make([]charge, opts.RecordsPerEpoch)
	now := sim.Time(0)
	for e := 0; e < opts.Epochs; e++ {
		// Record phase: each worker stages the charges of its own
		// block of record indices; the charge for index i is a pure
		// hash of (epoch, i). Only this goroutine touches the tree.
		t0 = clk.Now()
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			lo, hi := w*len(staged)/opts.Workers, (w+1)*len(staged)/opts.Workers
			wg.Add(1)
			go func(block []charge, lo int) {
				defer wg.Done()
				for k := range block {
					h := splitmix64(uint64(e)<<32 ^ uint64(lo+k))
					block[k] = charge{leaves[h%uint64(len(leaves))], float64(h>>40%1000 + 1)}
				}
			}(staged[lo:hi], lo)
		}
		wg.Wait()
		applyCharges(tree, staged)
		res.RecordNS += int64(clk.Since(t0))
		res.Records += int64(opts.RecordsPerEpoch)

		now += sim.Time(opts.Interval)
		t0 = clk.Now()
		tree.Advance(now)
		res.AdvanceNS += int64(clk.Since(t0))

		if hist != nil {
			tree.EmitHistory(hist, now, opts.HistoryDepth)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(e+1, opts.Epochs)
		}
	}
	if hist != nil {
		if err := hist.Flush(); err != nil {
			return res, fmt.Errorf("fairshare campaign: history flush: %w", err)
		}
	}

	// Factor phase: one hierarchical factor per leaf, summed into a
	// worker-count-invariant fingerprint.
	t0 = clk.Now()
	sum := 0.0
	for _, id := range leaves {
		sum += tree.Factor(id)
	}
	res.FactorNS = int64(clk.Since(t0))
	res.FactorChecksum = sum
	res.LiveLeaves = tree.LiveLeaves()

	t0 = clk.Now()
	top := tree.TopK(10, nil)
	res.TopKNS = int64(clk.Since(t0))
	res.Top = make([]string, len(top))
	for i, id := range top {
		res.Top[i] = tree.Path(id)
	}
	return res, nil
}

// FormatFairshare renders the campaign summary.
func FormatFairshare(r FairshareResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tree: %d nodes (%d queues, %d users), %d live leaves after %d epochs\n",
		r.NumNodes, r.Queues, r.Users, r.LiveLeaves, r.Epochs)
	fmt.Fprintf(&b, "records: %d total\n", r.Records)
	fmt.Fprintf(&b, "%-22s %14s %14s\n", "phase", "total [ms]", "per-op [ns]")
	row := func(name string, totalNS int64, ops int64) {
		per := 0.0
		if ops > 0 {
			per = float64(totalNS) / float64(ops)
		}
		fmt.Fprintf(&b, "%-22s %14.2f %14.1f\n", name, float64(totalNS)/1e6, per)
	}
	row("build", r.BuildNS, int64(r.Users+r.Queues))
	row("record (staged)", r.RecordNS, r.Records)
	row("advance (roll)", r.AdvanceNS, int64(r.Epochs))
	row("factor", r.FactorNS, int64(r.Users))
	row("topk(10)", r.TopKNS, 1)
	if len(r.Top) > 0 {
		fmt.Fprintf(&b, "heaviest: %s\n", strings.Join(r.Top, " "))
	}
	fmt.Fprintf(&b, "factor checksum: %g\n", r.FactorChecksum)
	return b.String()
}

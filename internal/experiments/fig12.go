package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/serverd"
	"repro/internal/tm"
)

// OverheadPoint is one x-value of Fig. 12: the tm_dynget round-trip
// latency for dynamically allocating n nodes, with an idle batch
// system and with a queued workload of rigid jobs
// (ReservationDelayDepth = 5).
type OverheadPoint struct {
	Nodes    int
	IdleMS   float64
	LoadedMS float64
}

// Fig12Opts parameterizes the overhead measurement.
type Fig12Opts struct {
	// MaxNodes is the largest dynamic allocation measured (paper: 10).
	MaxNodes int
	// CoresPerNode matches the testbed (8).
	CoresPerNode int
	// QueuedJobs is the rigid backlog in the loaded scenario.
	QueuedJobs int
	// Samples per point; the median-free mean of a few samples
	// smooths scheduler-wakeup jitter.
	Samples int
	// Clock supplies the timestamps for latency measurement and
	// timeouts. This package is sim-driven and must not touch the wall
	// clock directly (enforced by schedlint's nodeterminism analyzer);
	// the live benchmark injects clock.Wall here, tests a clock.Fake.
	// Nil defaults to clock.Wall.
	Clock clock.Clock
	// Workers bounds how many points are measured concurrently; each
	// point boots its own daemon stack on fresh loopback ports, so the
	// points are independent. <= 1 measures serially (the default —
	// concurrent stacks share the host CPU and can inflate the
	// latencies they measure; use > 1 only for smoke runs).
	Workers int
}

// DefaultFig12Opts mirrors the paper's setup.
func DefaultFig12Opts() Fig12Opts {
	return Fig12Opts{MaxNodes: 10, CoresPerNode: 8, QueuedJobs: 8, Samples: 3, Clock: clock.Wall{}}
}

// RunFig12 measures the dynamic allocation overhead on the real TCP
// daemon stack: a job running on one statically allocated node issues
// tm_dynget for 1..MaxNodes nodes; the reported latency is the full
// application-observed round trip (app → mom → server → scheduler
// iteration with delay measurement and fairness check → allocation →
// dyn_join with every new mom → app).
func RunFig12(opts Fig12Opts) ([]OverheadPoint, error) {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 10
	}
	if opts.CoresPerNode <= 0 {
		opts.CoresPerNode = 8
	}
	if opts.Samples <= 0 {
		opts.Samples = 1
	}
	if opts.Clock == nil {
		opts.Clock = clock.Wall{}
	}
	type pointOrErr struct {
		p   OverheadPoint
		err error
	}
	tasks := make([]func() pointOrErr, opts.MaxNodes)
	for i := range tasks {
		n := i + 1
		tasks[i] = func() pointOrErr {
			p := OverheadPoint{Nodes: n}
			idle, err := fig12Measure(opts, n, 0)
			if err != nil {
				return pointOrErr{err: fmt.Errorf("fig12 idle n=%d: %w", n, err)}
			}
			p.IdleMS = idle
			loaded, err := fig12Measure(opts, n, opts.QueuedJobs)
			if err != nil {
				return pointOrErr{err: fmt.Errorf("fig12 loaded n=%d: %w", n, err)}
			}
			p.LoadedMS = loaded
			return pointOrErr{p: p}
		}
	}
	workers := opts.Workers
	if workers <= 1 {
		workers = 1
	}
	results := campaign.Run(tasks, campaign.Options{Workers: workers})
	points := make([]OverheadPoint, len(results))
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		points[i] = r.p
	}
	return points, nil
}

// fig12Measure averages the probe latency over the configured samples;
// each sample runs on a fresh live cluster of n+1 moms so the queue
// state is identical every time.
func fig12Measure(opts Fig12Opts, n, backlog int) (float64, error) {
	var total time.Duration
	for s := 0; s < opts.Samples; s++ {
		lat, err := fig12Sample(opts, n, backlog)
		if err != nil {
			return 0, err
		}
		total += lat
	}
	return float64(total.Microseconds()) / 1000 / float64(opts.Samples), nil
}

// fig12Sample boots server + n+1 moms, starts the probe job on one
// node, queues the rigid backlog behind it (loaded scenario), then
// lets the probe time one tm_dynget for n nodes.
func fig12Sample(opts Fig12Opts, n, backlog int) (time.Duration, error) {
	sched := core.New(core.Options{}, 0)
	srv := serverd.New(serverd.Options{Sched: sched, PollInterval: 5 * time.Millisecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return 0, err
	}
	defer srv.Close()
	moms := make([]*mom.Mom, 0, n+1)
	defer func() {
		for _, m := range moms {
			m.Close()
		}
	}()
	for i := 0; i <= n; i++ {
		m := mom.New(fmt.Sprintf("f12n%d", i), opts.CoresPerNode)
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			return 0, err
		}
		moms = append(moms, m)
	}
	if err := waitNodes(opts.Clock, srv, n+1, 2*time.Second); err != nil {
		return 0, err
	}

	name := "fig12-probe-" + srv.Addr() // unique among the samples running at once
	type result struct {
		lat time.Duration
		err error
	}
	started := make(chan struct{}, 1)
	proceed := make(chan struct{})
	resCh := make(chan result, 1)
	unregister := mom.RegisterGoApp(name, func(ctx context.Context, tmc *tm.Context) error {
		started <- struct{}{}
		select {
		case <-proceed:
		case <-ctx.Done():
			return ctx.Err()
		}
		t0 := opts.Clock.Now()
		hosts, err := tmc.DynGetNodes(n, opts.CoresPerNode)
		lat := opts.Clock.Since(t0)
		if err != nil {
			resCh <- result{0, err}
			return err
		}
		_ = tmc.DynFree(hosts)
		resCh <- result{lat, nil}
		return nil
	})
	defer unregister()
	if _, err := srv.QSub(proto.JobSpec{
		Name: name, User: "prober", Nodes: 1, PPN: opts.CoresPerNode, WallSecs: 600,
		Script: "go:" + name, Evolving: true,
	}); err != nil {
		return 0, err
	}
	select {
	case <-started:
	case <-opts.Clock.After(10 * time.Second):
		return 0, fmt.Errorf("fig12 probe never started")
	}

	// Loaded scenario: with the probe already running, queue rigid
	// jobs that need the whole machine — they block, get reservations,
	// and every dynamic iteration measures delays against them
	// (ReservationDelayDepth = 5 by default).
	for i := 0; i < backlog; i++ {
		if _, err := srv.QSub(proto.JobSpec{
			Name: fmt.Sprintf("backlog%d", i), User: fmt.Sprintf("user%02d", i%5),
			Cores: (n + 1) * opts.CoresPerNode, WallSecs: 3600, Script: "sleep:1h",
		}); err != nil {
			return 0, err
		}
	}
	close(proceed)

	select {
	case r := <-resCh:
		return r.lat, r.err
	case <-opts.Clock.After(30 * time.Second):
		return 0, fmt.Errorf("fig12 probe timed out")
	}
}

func waitNodes(clk clock.Clock, srv *serverd.Server, n int, timeout time.Duration) error {
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		if len(srv.QStat().Nodes) >= n {
			return nil
		}
		clk.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("only %d of %d moms registered", len(srv.QStat().Nodes), n)
}

// FormatFig12 renders the overhead series.
func FormatFig12(points []OverheadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %14s\n", "Nodes", "Idle [ms]", "Loaded [ms]")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d %12.2f %14.2f\n", p.Nodes, p.IdleMS, p.LoadedMS)
	}
	return b.String()
}

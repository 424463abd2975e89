package serverd

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/testutil/leak"
)

// TestMain doubles as the soak test's mom-simulator driver: the test
// re-executes its own binary with MOMSIM_DRIVE set so the simulated
// moms live in a child process with their own file-descriptor budget
// (10k client sockets + 10k server sockets would not fit one process
// under the default limits).
func TestMain(m *testing.M) {
	if os.Getenv("MOMSIM_DRIVE") != "" {
		momSimMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// momSimMain floods MOMSIM_ADDR with MOMSIM_N simulated moms: each
// registers and then heartbeats every MOMSIM_INTERVAL_MS with its send
// wall clock stamped into SentMS, phase-staggered so the server sees a
// steady stream rather than n-at-once bursts. Runs until killed.
func momSimMain() {
	addr := os.Getenv("MOMSIM_ADDR")
	n, _ := strconv.Atoi(os.Getenv("MOMSIM_N"))
	intervalMS, _ := strconv.Atoi(os.Getenv("MOMSIM_INTERVAL_MS"))
	interval := time.Duration(intervalMS) * time.Millisecond
	// Throttle concurrent dials to the server's handshake budget.
	sem := make(chan struct{}, 256)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			c, err := proto.DialModeTimeout(addr, proto.ModeAuto, 30*time.Second)
			<-sem
			if err != nil {
				fmt.Fprintf(os.Stderr, "momsim %d: %v\n", i, err)
				return
			}
			defer c.Close()
			name := fmt.Sprintf("sim-%05d", i)
			if err := c.Send(proto.TRegister, proto.RegisterReq{Node: name, Cores: 1}); err != nil {
				fmt.Fprintf(os.Stderr, "momsim %d register: %v\n", i, err)
				return
			}
			time.Sleep(time.Duration(i%256) * interval / 256)
			hb := &proto.HeartbeatReq{Node: name}
			for {
				time.Sleep(interval)
				hb.Seq++
				hb.SentMS = time.Now().UnixMilli()
				if err := c.Send(proto.THeartbeat, hb); err != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// soakMoms returns the fleet size: PROTO_SOAK_MOMS overrides the
// default of 2000 (CI-friendly; the 10k figure in BENCH_proto.json is
// produced with PROTO_SOAK_MOMS=10000).
func soakMoms() int {
	if s := os.Getenv("PROTO_SOAK_MOMS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 2000
}

// TestSoakManyMoms holds a fleet of simulated moms (2000 by default,
// 10k via PROTO_SOAK_MOMS) against one server and asserts the p99
// heartbeat-to-stamp latency stays under one heartbeat interval — the
// property the beacon ring plus sweep-batched stamping exists to
// provide — with zero ring overflows and zero false down-detections.
func TestSoakManyMoms(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	if raceEnabled {
		t.Skip("latency bounds are not meaningful under race instrumentation")
	}
	leak.Check(t)
	n := soakMoms()
	const interval = 500 * time.Millisecond

	var mu sync.Mutex
	var lags []time.Duration
	collecting := false
	srv := New(Options{
		HeartbeatInterval: interval,
		HeartbeatMisses:   4,
		HandshakeTimeout:  30 * time.Second,
		OnBeacon: func(lag time.Duration) {
			mu.Lock()
			if collecting {
				lags = append(lags, lag)
			}
			mu.Unlock()
		},
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"MOMSIM_DRIVE=1",
		"MOMSIM_ADDR="+srv.Addr(),
		fmt.Sprintf("MOMSIM_N=%d", n),
		fmt.Sprintf("MOMSIM_INTERVAL_MS=%d", interval/time.Millisecond),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	regDeadline := 60*time.Second + time.Duration(n)*5*time.Millisecond
	waitFor(t, regDeadline, func() bool {
		return loopRead(t, srv, func() int { return len(srv.nodes) }) == n
	}, fmt.Sprintf("%d moms registered", n))

	// Measure over whole intervals with the full fleet beating.
	mu.Lock()
	collecting = true
	lags = nil
	mu.Unlock()
	time.Sleep(4 * interval)
	mu.Lock()
	collecting = false
	sample := lags
	lags = nil
	mu.Unlock()

	if len(sample) < n {
		t.Fatalf("collected %d heartbeat latencies over 4 intervals from %d moms; the fleet is not beating", len(sample), n)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	p50 := sample[len(sample)/2]
	p99 := sample[len(sample)*99/100]
	max := sample[len(sample)-1]
	t.Logf("soak %d moms: %d beacons, heartbeat-to-stamp p50=%v p99=%v max=%v (interval %v)", n, len(sample), p50, p99, max, interval)
	if p99 >= interval {
		t.Errorf("p99 heartbeat-to-stamp latency %v >= heartbeat interval %v", p99, interval)
	}
	if drops := srv.BeaconDrops(); drops != 0 {
		t.Errorf("%d beacons overflowed the ring onto the inbox fallback path", drops)
	}
	down := loopRead(t, srv, func() int {
		down := 0
		for _, ni := range srv.nodes {
			if ni.node.State != cluster.Up {
				down++
			}
		}
		return down
	})
	if down != 0 {
		t.Errorf("%d nodes falsely declared down during the soak", down)
	}
}

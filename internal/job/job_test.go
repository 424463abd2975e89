package job

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestStringers(t *testing.T) {
	if ID(42).String() != "job.42" {
		t.Errorf("ID stringer: %s", ID(42))
	}
	if Rigid.String() != "rigid" || Evolving.String() != "evolving" {
		t.Error("class stringer")
	}
	if Class(99).String() != "class(99)" {
		t.Error("out-of-range class stringer")
	}
	if DynQueued.String() != "dynqueued" || Preempted.String() != "preempted" {
		t.Error("state stringer")
	}
	if State(99).String() != "state(99)" {
		t.Error("out-of-range state stringer")
	}
}

func TestJobTimes(t *testing.T) {
	j := &Job{
		Cores:      8,
		Walltime:   100 * sim.Second,
		SubmitTime: 10 * sim.Second,
		StartTime:  25 * sim.Second,
		EndTime:    80 * sim.Second,
		State:      Running,
	}
	if j.WaitTime() != 15*sim.Second {
		t.Errorf("wait = %v", j.WaitTime())
	}
	if j.TurnaroundTime() != 70*sim.Second {
		t.Errorf("turnaround = %v", j.TurnaroundTime())
	}
	if got := j.RemainingWalltime(50 * sim.Second); got != 75*sim.Second {
		t.Errorf("remaining walltime = %v, want 75s", got)
	}
	if got := j.RemainingWalltime(500 * sim.Second); got != 0 {
		t.Errorf("remaining walltime past end = %v", got)
	}
}

func TestJobStatesAndCores(t *testing.T) {
	j := &Job{Cores: 16, State: Queued}
	if j.Active() || j.Terminal() {
		t.Error("queued job should be neither active nor terminal")
	}
	if j.RemainingWalltime(0) != 0 {
		t.Error("unstarted job has no remaining walltime")
	}
	j.State = Running
	j.DynCores = 4
	if !j.Active() {
		t.Error("running job should be active")
	}
	if j.TotalCores() != 20 {
		t.Errorf("total cores = %d, want 20", j.TotalCores())
	}
	j.State = DynQueued
	if !j.Active() {
		t.Error("dynqueued job should still be active")
	}
	j.State = Completed
	if !j.Terminal() {
		t.Error("completed job should be terminal")
	}
}

func TestClone(t *testing.T) {
	j := &Job{ID: 7, Cores: 4, State: Running}
	c := j.Clone()
	c.Cores = 99
	c.State = Completed
	if j.Cores != 4 || j.State != Running {
		t.Error("Clone should not alias the original")
	}
	if c.ID != 7 {
		t.Error("Clone should copy fields")
	}
}

func TestDynRequestValidate(t *testing.T) {
	j := &Job{ID: 1}
	cases := []struct {
		name string
		r    DynRequest
		ok   bool
	}{
		{"cores", DynRequest{Job: j, Cores: 4}, true},
		{"nodes", DynRequest{Job: j, Nodes: 2, PPN: 8}, true},
		{"nil job", DynRequest{Cores: 4}, false},
		{"empty", DynRequest{Job: j}, false},
		{"negative", DynRequest{Job: j, Cores: -1}, false},
		{"nodes no ppn", DynRequest{Job: j, Nodes: 2}, false},
		{"nodes×ppn overflows", DynRequest{Job: j, Nodes: 3, PPN: 1 << 62}, false},
		{"nodes×ppn wraps to 0", DynRequest{Job: j, Nodes: 4, PPN: 1 << 62}, false},
		{"nodes×ppn at MaxInt", DynRequest{Job: j, Nodes: 1, PPN: math.MaxInt}, true},
	}
	for _, c := range cases {
		err := c.r.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	r := DynRequest{Job: j, Nodes: 3, PPN: 8}
	if r.TotalCores() != 24 {
		t.Errorf("node-granular TotalCores = %d, want 24", r.TotalCores())
	}
	r2 := DynRequest{Job: j, Cores: 4}
	if r2.TotalCores() != 4 {
		t.Errorf("core-granular TotalCores = %d, want 4", r2.TotalCores())
	}
}

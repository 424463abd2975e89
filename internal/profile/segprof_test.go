package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// stepsEqual compares two step lists exactly.
func stepsEqual(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSegProfileDifferential drives the flat Profile and the segmented
// SegProfile through identical random op sequences and requires
// identical steps and identical answers to every query — the oracle
// that licenses the scheduler's switch to segmented planning.
func TestSegProfileDifferential(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := sim.Time(rng.Intn(1000)) * sim.Second
			freeNow := rng.Intn(4096)

			// Build both from one Builder load.
			var b Builder
			b.Reset(base, freeNow)
			nRel := rng.Intn(200)
			for i := 0; i < nRel; i++ {
				b.Release(base+sim.Duration(1+rng.Intn(5000))*sim.Second, 1+rng.Intn(64))
			}
			flat := b.Build()
			seg := b.BuildSegInto(&SegProfile{})
			check := func(op string) {
				t.Helper()
				if err := seg.CheckInvariants(); err != nil {
					t.Fatalf("after %s: %v", op, err)
				}
				if err := flat.CheckInvariants(); err != nil {
					t.Fatalf("after %s: flat: %v", op, err)
				}
				if !stepsEqual(flat.Steps(), seg.Steps()) {
					t.Fatalf("after %s:\nflat %v\nseg  %v", op, flat, seg)
				}
			}
			check("build")

			for op := 0; op < 300; op++ {
				switch rng.Intn(5) {
				case 0:
					at := base + sim.Duration(rng.Intn(6000))*sim.Second
					c := 1 + rng.Intn(64)
					flat.AddRelease(at, c)
					seg.AddRelease(at, c)
					check("release")
				case 1:
					start := base + sim.Duration(rng.Intn(6000))*sim.Second
					end := start + sim.Duration(rng.Intn(3000))*sim.Second
					if rng.Intn(10) == 0 {
						end = sim.Forever
					}
					c := rng.Intn(64)
					flat.AddHold(start, end, c)
					seg.AddHold(start, end, c)
					check("hold")
				case 2:
					at := base + sim.Duration(rng.Intn(7000)-500)*sim.Second
					if f, s := flat.FreeAt(at), seg.FreeAt(at); f != s {
						t.Fatalf("FreeAt(%v): flat %d seg %d", at, f, s)
					}
				case 3:
					start := base + sim.Duration(rng.Intn(7000)-500)*sim.Second
					end := start + sim.Duration(rng.Intn(3000)-100)*sim.Second
					if f, s := flat.MinFree(start, end), seg.MinFree(start, end); f != s {
						t.Fatalf("MinFree(%v,%v): flat %d seg %d", start, end, f, s)
					}
				case 4:
					cores := rng.Intn(128)
					dur := sim.Duration(rng.Intn(4000)) * sim.Second
					if rng.Intn(20) == 0 {
						dur = sim.Forever
					}
					earliest := base + sim.Duration(rng.Intn(6000)-500)*sim.Second
					if f, s := flat.FindSlot(cores, dur, earliest), seg.FindSlot(cores, dur, earliest); f != s {
						t.Fatalf("FindSlot(%d,%v,%v): flat %v seg %v\nflat %v\nseg  %v",
							cores, dur, earliest, f, s, flat, seg)
					}
				}
			}

			// Clone and verify independence: mutations to the clone must
			// not leak back.
			var buf SegProfile
			c := seg.CloneInto(&buf)
			before := seg.Steps()
			c.AddHold(base, sim.Forever, 7)
			if !stepsEqual(seg.Steps(), before) {
				t.Fatal("CloneInto aliases the source profile")
			}
		})
	}
}

// TestSegProfileSplitDense forces many boundary insertions into a small
// time range so segments split repeatedly.
func TestSegProfileSplitDense(t *testing.T) {
	flat := New(0, 100)
	seg := NewSeg(0, 100)
	// Insert boundaries in an order that hits front, middle, and back of
	// the same segments.
	for i := 0; i < 500; i++ {
		at := sim.Time((i * 7919) % 1000)
		flat.AddHold(at, at+1, 1)
		seg.AddHold(at, at+1, 1)
	}
	if err := seg.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !stepsEqual(flat.Steps(), seg.Steps()) {
		t.Fatalf("dense split divergence:\nflat %v\nseg  %v", flat, seg)
	}
}

// TestSegProfileCloneIntoReusedStorage clones into storage that held a
// larger profile, then splits the clone hard with dense holds and
// releases until its segment slice outgrows that storage. Every split
// appends a segment and may move the slice, so a *segment kept across
// one would write into stale memory; the clone must match the flat
// profile step for step after every operation, and its source must not
// change.
func TestSegProfileCloneIntoReusedStorage(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b Builder
		b.Reset(0, 4096)
		for i := 0; i < 1000; i++ {
			b.Release(sim.Duration(1+rng.Intn(100000))*sim.Second, 1+rng.Intn(8))
		}
		dst := b.BuildSegInto(&SegProfile{})
		held := len(dst.segs)

		b.Reset(0, 512)
		for i := 0; i < 40; i++ {
			b.Release(sim.Duration(1+rng.Intn(2000))*sim.Second, 1+rng.Intn(8))
		}
		src := b.BuildSegInto(&SegProfile{})
		flat := b.Build()
		before := src.Steps()

		c := src.CloneInto(dst)
		for op := 0; op < 1000; op++ {
			at := sim.Duration(rng.Intn(2000)) * sim.Second
			cores := 1 + rng.Intn(16)
			if rng.Intn(2) == 0 {
				end := at + sim.Duration(1+rng.Intn(50))*sim.Second
				flat.AddHold(at, end, cores)
				c.AddHold(at, end, cores)
			} else {
				flat.AddRelease(at, cores)
				c.AddRelease(at, cores)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if !stepsEqual(flat.Steps(), c.Steps()) {
				t.Fatalf("seed %d op %d:\nflat  %v\nclone %v", seed, op, flat, c)
			}
		}
		if len(c.segs) <= held {
			t.Fatalf("seed %d: the clone has %d segments, never outgrowing the %d it reused", seed, len(c.segs), held)
		}
		if !stepsEqual(src.Steps(), before) {
			t.Fatalf("seed %d: splitting the clone changed its source", seed)
		}
	}
}

// benchProfilePair builds a production-scale profile (thousands of
// release boundaries, a band of holds) in both representations.
func benchProfilePair() (*Profile, *SegProfile) {
	var b Builder
	b.Reset(0, 4096)
	for i := 0; i < 3300; i++ {
		b.Release(sim.Hour+sim.Duration(i)*sim.Minute, 8)
	}
	flat := b.Build()
	seg := b.BuildSegInto(&SegProfile{})
	for i := 0; i < 40; i++ {
		start := sim.Duration(i) * 17 * sim.Minute
		flat.AddHold(start, start+2*sim.Hour, 32)
		seg.AddHold(start, start+2*sim.Hour, 32)
	}
	return flat, seg
}

// BenchmarkFindSlotFlat is the baseline: the flat profile's O(steps)
// sweep at 4096-node scale.
func BenchmarkFindSlotFlat(b *testing.B) {
	flat, _ := benchProfilePair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.FindSlot(32+(i%64), 2*sim.Hour, sim.Time(i%1000)*sim.Second)
	}
}

// BenchmarkFindSlotSegments measures the segmented sweep with min/max
// aggregate skipping on the same profile.
func BenchmarkFindSlotSegments(b *testing.B) {
	_, seg := benchProfilePair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.FindSlot(32+(i%64), 2*sim.Hour, sim.Time(i%1000)*sim.Second)
	}
}

// BenchmarkSegProfileClone measures the arena-copy clone that backs
// each what-if overlay.
func BenchmarkSegProfileClone(b *testing.B) {
	_, seg := benchProfilePair()
	var buf SegProfile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.CloneInto(&buf)
	}
}

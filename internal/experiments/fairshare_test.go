package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fairtree"
	"repro/internal/sim"
)

func fairshareFixture(workers int, hist *bytes.Buffer) FairshareOpts {
	opts := FairshareOpts{
		Users:           200,
		Queues:          8,
		Epochs:          4,
		RecordsPerEpoch: 1000,
		Workers:         workers,
		Decay:           0.5,
		Interval:        sim.Hour,
		Clock:           clock.NewFake(time.Unix(0, 0)),
		HistoryFormat:   fairtree.HistoryCSV,
		HistoryDepth:    1, // group nodes only
	}
	if hist != nil { // a nil *bytes.Buffer must stay a nil interface
		opts.History = hist
	}
	return opts
}

// TestFairshareWorkerCountInvariance is the campaign-level golden: the
// allocation-history stream, factor checksum and top-k ranking must be
// byte-identical no matter how many goroutines recorded the charges.
func TestFairshareWorkerCountInvariance(t *testing.T) {
	var refHist bytes.Buffer
	ref, err := RunFairshare(fairshareFixture(1, &refHist))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Records != 4000 || ref.LiveLeaves == 0 {
		t.Fatalf("implausible reference result: %+v", ref)
	}
	if !strings.HasPrefix(refHist.String(), "time_s,epoch,node,depth,usage,factor,quota,live\n") {
		t.Fatalf("history missing CSV header:\n%s", refHist.String()[:80])
	}
	// 4 epochs x 8 group rows + header.
	if got := strings.Count(refHist.String(), "\n"); got != 4*8+1 {
		t.Fatalf("history rows = %d, want %d", got, 4*8+1)
	}
	for _, workers := range []int{4, 8} {
		var h bytes.Buffer
		r, err := RunFairshare(fairshareFixture(workers, &h))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.Bytes(), refHist.Bytes()) {
			t.Errorf("workers=%d: history diverged from single-worker run", workers)
		}
		if r.FactorChecksum != ref.FactorChecksum {
			t.Errorf("workers=%d: checksum %g != %g", workers, r.FactorChecksum, ref.FactorChecksum)
		}
		if strings.Join(r.Top, " ") != strings.Join(ref.Top, " ") {
			t.Errorf("workers=%d: top-k %v != %v", workers, r.Top, ref.Top)
		}
		if r.LiveLeaves != ref.LiveLeaves {
			t.Errorf("workers=%d: live leaves %d != %d", workers, r.LiveLeaves, ref.LiveLeaves)
		}
	}
}

func TestFairshareFormat(t *testing.T) {
	r, err := RunFairshare(fairshareFixture(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFairshare(r)
	for _, want := range []string{"records: 4000", "record (staged)", "factor checksum:", "heaviest:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestFairshareOptValidation(t *testing.T) {
	if _, err := RunFairshare(FairshareOpts{Users: 0, Queues: 1}); err == nil {
		t.Error("zero users accepted")
	}
	if _, err := RunFairshare(FairshareOpts{Users: 10, Queues: 1, Decay: 1.5}); err == nil {
		t.Error("decay > 1 accepted")
	}
	// More queues than users clamps rather than errors.
	r, err := RunFairshare(FairshareOpts{
		Users: 3, Queues: 9, Epochs: 1, RecordsPerEpoch: 10,
		Decay: 0.5, Clock: clock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Queues != 3 {
		t.Errorf("queues = %d, want clamped to 3", r.Queues)
	}
}

// TestFairshareCampaignPinned pins the fixture's history bytes, factor
// checksum and top-k across commits, at several worker counts. The
// values were taken when the tree still folded lock-striped charges
// itself at Advance; a campaign that drops, duplicates or re-values a
// charge, or applies one in another epoch, fails here. The charges are
// whole numbers, so these sums do not depend on summation order.
func TestFairshareCampaignPinned(t *testing.T) {
	const (
		wantHist = "70cfb0b58ce8d39aef716ae778d727da8ebb1d323cb4fcc32c6d78d3320f1890"
		wantSum  = 0x3cca000000000000
		wantTop  = "q00005.u0000197 q00001.u0000081 q00005.u0000157 q00006.u0000094 q00004.u0000124 " +
			"q00005.u0000109 q00005.u0000053 q00004.u0000060 q00006.u0000046 q00002.u0000130"
	)
	for _, workers := range []int{1, 3, 8} {
		var h bytes.Buffer
		r, err := RunFairshare(fairshareFixture(workers, &h))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(h.Bytes())); got != wantHist {
			t.Errorf("workers=%d: history sha256 %s, want %s", workers, got, wantHist)
		}
		if got := math.Float64bits(r.FactorChecksum); got != wantSum {
			t.Errorf("workers=%d: checksum bits %#x, want %#x", workers, got, uint64(wantSum))
		}
		if got := strings.Join(r.Top, " "); got != wantTop {
			t.Errorf("workers=%d: top-k %s, want %s", workers, got, wantTop)
		}
	}
}

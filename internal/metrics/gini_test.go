package metrics

import (
	"math"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func TestGiniUniform(t *testing.T) {
	for _, n := range []int{1, 4, 7} {
		counts := make([]uint64, n)
		for i := range counts {
			counts[i] = 25
		}
		if g := Gini(counts); math.Abs(g) > 1e-12 {
			t.Fatalf("Gini(uniform n=%d) = %g, want 0", n, g)
		}
	}
}

func TestGiniSingleProposer(t *testing.T) {
	for _, n := range []int{2, 4, 10} {
		counts := make([]uint64, n)
		counts[0] = 100
		want := float64(n-1) / float64(n)
		if g := Gini(counts); math.Abs(g-want) > 1e-12 {
			t.Fatalf("Gini(single, n=%d) = %g, want %g", n, g, want)
		}
	}
}

func TestGiniMixed(t *testing.T) {
	// Hand computation for [1,2,3,4] (already sorted):
	// G = 2*(1*1+2*2+3*3+4*4)/(4*10) - 5/4 = 60/40 - 1.25 = 0.25.
	if g := Gini([]uint64{1, 2, 3, 4}); math.Abs(g-0.25) > 1e-12 {
		t.Fatalf("Gini([1 2 3 4]) = %g, want 0.25", g)
	}
	// Order must not matter.
	if g := Gini([]uint64{4, 1, 3, 2}); math.Abs(g-0.25) > 1e-12 {
		t.Fatalf("Gini unsorted = %g, want 0.25", g)
	}
}

func TestGiniDegenerate(t *testing.T) {
	if g := Gini(nil); g != 0 {
		t.Fatalf("Gini(nil) = %g", g)
	}
	if g := Gini([]uint64{0, 0, 0}); g != 0 {
		t.Fatalf("Gini(zeros) = %g", g)
	}
}

func TestHistDataExportMerge(t *testing.T) {
	var a, b Latency
	for i := 0; i < 10; i++ {
		a.Record(2 * time.Millisecond)
		b.Record(40 * time.Millisecond)
	}
	ha, hb := a.Export(), b.Export()
	if ha.Count != 10 || hb.Count != 10 {
		t.Fatalf("export counts: %d %d", ha.Count, hb.Count)
	}
	ha.Merge(hb)
	if ha.Count != 20 {
		t.Fatalf("merged count = %d", ha.Count)
	}
	if ha.Max != int64(40*time.Millisecond) {
		t.Fatalf("merged max = %d", ha.Max)
	}
	sum := a.Snapshot().Mean*10 + b.Snapshot().Mean*10
	if got := time.Duration(ha.Sum); got != sum {
		t.Fatalf("merged sum = %v, want %v", got, sum)
	}
	// Round-trip through a live histogram digests sanely: the median
	// of 10×2ms + 10×40ms lands in the 2ms bucket's neighborhood.
	s := ha.Summary()
	if s.Count != 20 || s.P50 < time.Millisecond || s.P50 > 4*time.Millisecond {
		t.Fatalf("summary after merge: %+v", s)
	}
	if s.P99 < 30*time.Millisecond {
		t.Fatalf("P99 lost the slow mode: %+v", s)
	}
}

func TestHistBucketUpperMatchesLatency(t *testing.T) {
	var l Latency
	d := 5 * time.Millisecond
	l.Record(d)
	h := l.Export()
	idx := len(h.Buckets) - 1
	if h.Buckets[idx] != 1 {
		t.Fatalf("last bucket count = %d", h.Buckets[idx])
	}
	if upper := HistBucketUpper(idx); upper < d {
		t.Fatalf("bucket upper %v < recorded %v", upper, d)
	}
}

func TestChainTrackerProposerSharesAndGini(t *testing.T) {
	ct := newTracker(4)
	// Proposer 1 lands 6 blocks, proposer 2 lands 2, proposers 3 and 4
	// none: counts [6 2 0 0].
	for i := 0; i < 6; i++ {
		ct.OnBlockCommitted(1, types.View(i+1), types.View(i+4), 10)
	}
	for i := 0; i < 2; i++ {
		ct.OnBlockCommitted(2, types.View(i+10), types.View(i+13), 10)
	}
	s := ct.Snapshot()
	if s.Cohort != 4 || s.ProposerCommits[1] != 6 || s.ProposerCommits[2] != 2 {
		t.Fatalf("proposer commits: %+v", s)
	}
	shares := s.Shares()
	if len(shares) != 4 {
		t.Fatalf("shares = %v, want dense over cohort 4", shares)
	}
	if math.Abs(shares[0]-0.75) > 1e-12 || math.Abs(shares[1]-0.25) > 1e-12 || shares[2] != 0 || shares[3] != 0 {
		t.Fatalf("shares = %v", shares)
	}
	// Gini([6 2 0 0]) = 2*(1*0+2*0+3*2+4*6)/(4*8) - 5/4 = 60/32 - 1.25 = 0.625.
	if math.Abs(s.Gini-0.625) > 1e-12 {
		t.Fatalf("Gini = %g, want 0.625", s.Gini)
	}
}

func TestChainStatsAccumulateStages(t *testing.T) {
	t1, t2 := newTracker(3), newTracker(3)
	t1.Stages[StageVerify].Record(1 * time.Millisecond)
	t1.Stages[StageCommit].Record(8 * time.Millisecond)
	t2.Stages[StageVerify].Record(2 * time.Millisecond)
	t1.OnBlockCommitted(1, 1, 4, 5)
	t2.OnBlockCommitted(2, 2, 5, 5)
	t2.OnBlockCommitted(2, 3, 6, 5)

	var agg ChainStats
	agg.Accumulate(t1.Snapshot())
	agg.Accumulate(t2.Snapshot())
	agg.AverageRatios(2)

	if agg.Stages["verify"].Count != 2 {
		t.Fatalf("merged verify count = %d", agg.Stages["verify"].Count)
	}
	if agg.Stages["commit"].Count != 1 {
		t.Fatalf("merged commit count = %d", agg.Stages["commit"].Count)
	}
	if agg.ProposerCommits[1] != 1 || agg.ProposerCommits[2] != 2 {
		t.Fatalf("merged proposer commits: %+v", agg.ProposerCommits)
	}
	// Gini over [1 2 0]: 2*(1*0+2*1+3*2)/(3*3) - 4/3 = 16/9 - 12/9 = 4/9.
	if math.Abs(agg.Gini-4.0/9.0) > 1e-12 {
		t.Fatalf("merged Gini = %g, want %g", agg.Gini, 4.0/9.0)
	}
	sums := agg.StageSummaries()
	if sums["verify"].Count != 2 {
		t.Fatalf("stage summaries: %+v", sums)
	}
}

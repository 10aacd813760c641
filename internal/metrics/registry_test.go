package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestWriteText pins the exposition format of every family kind.
func TestWriteText(t *testing.T) {
	var r Registry
	r.Counter("a_total", "A counter.").Add(3)
	r.CounterFunc("b_total", "A counter owned elsewhere.", func() uint64 { return 7 })
	r.Gauge("c", "A gauge.", func() float64 { return 0.25 })
	vec := r.CounterVec("d_total", "A labelled counter.", "proposer", "1", "2")
	vec[1].Add(2)
	r.Histogram("e_seconds", "A histogram.").Record(time.Microsecond)
	r.HistogramVec("f_seconds", "A labelled histogram.", "stage", "qc", "vote")
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total A counter.
# TYPE a_total counter
a_total 3
# HELP b_total A counter owned elsewhere.
# TYPE b_total counter
b_total 7
# HELP c A gauge.
# TYPE c gauge
c 0.25
# HELP d_total A labelled counter.
# TYPE d_total counter
d_total{proposer="1"} 0
d_total{proposer="2"} 2
# HELP e_seconds A histogram.
# TYPE e_seconds histogram
e_seconds_bucket{le="1.25e-06"} 1
e_seconds_bucket{le="+Inf"} 1
e_seconds_sum 1e-06
e_seconds_count 1
# HELP f_seconds A labelled histogram.
# TYPE f_seconds histogram
f_seconds_bucket{stage="qc",le="+Inf"} 0
f_seconds_sum{stage="qc"} 0
f_seconds_count{stage="qc"} 0
f_seconds_bucket{stage="vote",le="+Inf"} 0
f_seconds_sum{stage="vote"} 0
f_seconds_count{stage="vote"} 0
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryRejectsDuplicateFamily: a family declared twice would
// appear twice in the exposition.
func TestRegistryRejectsDuplicateFamily(t *testing.T) {
	var r Registry
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("second declaration of x_total did not panic")
		}
	}()
	r.Gauge("x_total", "X again.", func() float64 { return 0 })
}

// TestChainTrackerIgnoresProposerOutsideCohort: a committed block
// naming a proposer outside 1..N counts as a commit but not per
// proposer.
func TestChainTrackerIgnoresProposerOutsideCohort(t *testing.T) {
	ct := newTracker(4)
	ct.OnBlockCommitted(0, 1, 2, 1)
	ct.OnBlockCommitted(5, 1, 2, 1)
	ct.OnBlockCommitted(4, 1, 2, 1)
	s := ct.Snapshot()
	if s.BlocksCommitted != 3 || len(s.ProposerCommits) != 1 || s.ProposerCommits[4] != 1 {
		t.Fatalf("snapshot %+v, want 3 commits and only proposer 4 counted", s)
	}
}

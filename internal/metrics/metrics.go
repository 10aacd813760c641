// Package metrics implements the measurement facilities of the
// benchmarker: client-side latency histograms, throughput counters,
// the paper's two micro-metrics — chain growth rate (CGR) and block
// interval (BI) — and the per-replica Registry every exported series
// is declared in.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// latency histogram geometry: geometric buckets from 1µs up, growth
// ×1.25, which keeps quantile error under ~12% across six decades.
const (
	bucketBase   = float64(time.Microsecond)
	bucketGrowth = 1.25
	bucketCount  = 96
)

// LatencySummary is a point-in-time digest of a latency distribution.
// Quantiles come from the log-bucketed histogram: each is the upper
// bound of the bucket holding the nearest rank ceil(q·n) (clamped to
// the observed maximum), so a reported quantile is within one
// bucket-growth factor of the exact order statistic.
type LatencySummary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// Latency is a concurrency-safe latency histogram.
// The zero value is ready to use.
type Latency struct {
	mu      sync.Mutex
	buckets [bucketCount]uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := int(math.Log(float64(d)/bucketBase) / math.Log(bucketGrowth))
	if idx < 0 {
		return 0
	}
	if idx >= bucketCount {
		return bucketCount - 1
	}
	return idx
}

func bucketUpper(i int) time.Duration {
	return time.Duration(bucketBase * math.Pow(bucketGrowth, float64(i+1)))
}

// Record adds one observation.
func (l *Latency) Record(d time.Duration) {
	l.mu.Lock()
	l.buckets[bucketIndex(d)]++
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.mu.Unlock()
}

// Snapshot digests the current distribution.
func (l *Latency) Snapshot() LatencySummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LatencySummary{Count: l.count, Max: l.max}
	if l.count == 0 {
		return s
	}
	s.Mean = l.sum / time.Duration(l.count)
	quantile := func(q float64) time.Duration {
		// Nearest rank, the rule of the benchmark's exact quantiles.
		target := max(uint64(math.Ceil(q*float64(l.count))), 1)
		var cum uint64
		for i, c := range l.buckets {
			cum += c
			if cum >= target {
				// A bucket's upper bound can overshoot the largest
				// sample it holds; the observed maximum is a tighter
				// truth for the top buckets.
				if u := bucketUpper(i); u < l.max || l.max == 0 {
					return u
				}
				return l.max
			}
		}
		return l.max
	}
	s.P50, s.P95, s.P99, s.P999 = quantile(0.50), quantile(0.95), quantile(0.99), quantile(0.999)
	return s
}

// Merge folds other's observations into l — the per-client histograms
// of a multi-client load plan merge into one distribution this way, a
// sum of bucket counts with no loss beyond the shared bucket geometry
// (quantiles of the merge are as accurate as of any single histogram).
func (l *Latency) Merge(other *Latency) {
	if other == nil {
		return
	}
	other.mu.Lock()
	buckets := other.buckets
	count, sum, max := other.count, other.sum, other.max
	other.mu.Unlock()
	l.mu.Lock()
	for i, c := range buckets {
		l.buckets[i] += c
	}
	l.count += count
	l.sum += sum
	if max > l.max {
		l.max = max
	}
	l.mu.Unlock()
}

// Reset clears the histogram.
func (l *Latency) Reset() {
	l.mu.Lock()
	l.buckets = [bucketCount]uint64{}
	l.count, l.sum, l.max = 0, 0, 0
	l.mu.Unlock()
}

// Counter is an atomic event counter (committed transactions, sent
// messages, …). The zero value is ready to use.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Stage names one leg of a committed block's lifecycle, as observed
// by a single replica's clock (cross-replica stamps would need clock
// agreement the harness does not assume): verify is proposal receipt
// to signature acceptance, vote is acceptance to the vote leaving,
// qc is the vote to the block's certificate arriving (vote collection
// plus dissemination), commit is the certificate to the commit rule
// firing (the chained-pipelining depth), execute is commit to the
// state machine finishing the payload.
type Stage int

// The block-lifecycle stages, in pipeline order.
const (
	StageVerify Stage = iota
	StageVote
	StageQC
	StageCommit
	StageExecute
	numStages
)

// StageNames lists the stage labels in pipeline order — the key set of
// ChainStats.Stages and the label values of the Prometheus
// bamboo_stage_seconds histogram.
var StageNames = [numStages]string{"verify", "vote", "qc", "commit", "execute"}

func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return StageNames[s]
}

// ChainStats digests a ChainTracker.
type ChainStats struct {
	// BlocksAdded counts blocks this replica accepted onto its
	// chain (voted for).
	BlocksAdded uint64
	// BlocksCommitted counts blocks that reached commitment.
	BlocksCommitted uint64
	// ViewsEntered counts views this replica entered.
	ViewsEntered uint64
	// CGR is the chain growth rate: committed blocks over blocks
	// appended onto the blockchain (Section IV-B). 1.0 means every
	// appended block eventually commits (no fork ever wastes an
	// accepted block); forking/silence attacks push it below 1 in
	// the HotStuff family. Commit/acceptance timing races at a
	// measurement edge are clamped so the ratio never exceeds 1.
	CGR float64
	// BI is the block interval: mean number of views from a
	// block's proposal view to the view in which it committed.
	BI float64
	// TxCommitted counts committed transactions.
	TxCommitted uint64
	// ProposerCommits counts committed blocks per proposer (keyed by
	// replica ID) — the raw material of the chain-quality reading.
	ProposerCommits map[uint32]uint64 `json:",omitempty"`
	// Cohort is the number of replicas the proposer shares are
	// measured over; proposers absent from ProposerCommits hold a
	// zero share.
	Cohort int `json:",omitempty"`
	// Gini is the Gini coefficient over the per-proposer committed
	// shares: 0 when every replica lands an equal share of the
	// committed chain, approaching (Cohort-1)/Cohort when one leader
	// owns it.
	Gini float64
	// Stages holds the per-stage latency histograms of the block
	// lifecycle (see StageNames), in raw mergeable form.
	Stages map[string]HistData `json:",omitempty"`
}

// Shares expands ProposerCommits into dense per-replica fractions of
// the committed chain (index = replica ID - 1, length = Cohort).
func (c *ChainStats) Shares() []float64 {
	if c.Cohort == 0 {
		return nil
	}
	shares := make([]float64, c.Cohort)
	var total float64
	for _, n := range c.ProposerCommits {
		total += float64(n)
	}
	if total == 0 {
		return shares
	}
	for id, n := range c.ProposerCommits {
		if id >= 1 && int(id) <= c.Cohort {
			shares[id-1] = float64(n) / total
		}
	}
	return shares
}

// StageSummaries digests the raw per-stage histograms.
func (c *ChainStats) StageSummaries() map[string]LatencySummary {
	if len(c.Stages) == 0 {
		return nil
	}
	out := make(map[string]LatencySummary, len(c.Stages))
	for name, h := range c.Stages {
		out[name] = h.Summary()
	}
	return out
}

// giniFromCommits recomputes the coefficient from the (possibly
// merged) proposer counts over the cohort, zeros included.
func (c *ChainStats) giniFromCommits() float64 {
	if c.Cohort == 0 {
		return 0
	}
	counts := make([]uint64, c.Cohort)
	for id, n := range c.ProposerCommits {
		if id >= 1 && int(id) <= c.Cohort {
			counts[id-1] += n
		}
	}
	return Gini(counts)
}

// Accumulate sums s into c, ratio metrics included — pair with
// AverageRatios(n) once every replica's stats are in, the way the
// paper reports CGR and BI "from a replica's view". Shared by the
// in-process cluster aggregation and the fleet's HTTP result merge.
func (c *ChainStats) Accumulate(s ChainStats) {
	c.BlocksAdded += s.BlocksAdded
	c.BlocksCommitted += s.BlocksCommitted
	c.ViewsEntered += s.ViewsEntered
	c.TxCommitted += s.TxCommitted
	c.CGR += s.CGR
	c.BI += s.BI
	if len(s.ProposerCommits) > 0 {
		if c.ProposerCommits == nil {
			c.ProposerCommits = make(map[uint32]uint64, len(s.ProposerCommits))
		}
		for id, n := range s.ProposerCommits {
			c.ProposerCommits[id] += n
		}
	}
	if s.Cohort > c.Cohort {
		c.Cohort = s.Cohort
	}
	if len(s.Stages) > 0 {
		if c.Stages == nil {
			c.Stages = make(map[string]HistData, len(s.Stages))
		}
		for name, h := range s.Stages {
			merged := c.Stages[name]
			merged.Merge(h)
			c.Stages[name] = merged
		}
	}
}

// AverageRatios divides the accumulated ratio metrics (CGR, BI) by the
// number of replicas summed; counters stay totals. The Gini
// coefficient is not averaged but recomputed from the merged proposer
// counts — every honest replica observes (nearly) the same committed
// chain, so summing their counts preserves the shares and one
// coefficient over the merge is the meaningful deployment-wide figure.
func (c *ChainStats) AverageRatios(n int) {
	if n > 0 {
		c.CGR /= float64(n)
		c.BI /= float64(n)
	}
	c.Gini = c.giniFromCommits()
}

// ChainTracker accumulates the micro-metrics of Section IV-B, plus
// the chain-quality metrics (per-proposer committed shares, Gini) and
// the per-stage block-lifecycle latency histograms the trace layer
// derives. Its handles come from the replica's Registry, so Snapshot
// reads the same storage the exposition renders. Callers Add or Record
// on a handle directly; a commit moves several at once and goes
// through OnBlockCommitted.
type ChainTracker struct {
	// Added counts blocks accepted onto the chain (voted for); Views
	// counts views entered.
	Added, Views *Counter
	// Committed counts committed blocks, TxCommitted the transactions
	// they carry.
	Committed, TxCommitted *Counter
	// Proposers[i] counts committed blocks proposed by replica i+1;
	// its length is the cohort the proposer shares are measured over
	// (replicas that never commit a block still count as zero-share
	// proposers in the Gini coefficient).
	Proposers []*Counter
	// Stages[s] holds the durations of lifecycle stage s.
	Stages [numStages]*Latency
	// biSum is the BI numerator: views from proposal to commit,
	// summed over committed blocks.
	biSum Counter
}

// OnBlockCommitted records a commit of a block proposed by proposer in
// proposeView that committed while the replica was in commitView,
// carrying txs transactions. A proposer outside the cohort is not
// counted per proposer.
func (c *ChainTracker) OnBlockCommitted(proposer types.NodeID, proposeView, commitView types.View, txs int) {
	c.Committed.Add(1)
	if commitView >= proposeView {
		c.biSum.Add(uint64(commitView - proposeView))
	}
	c.TxCommitted.Add(uint64(txs))
	if proposer >= 1 && int(proposer) <= len(c.Proposers) {
		c.Proposers[proposer-1].Add(1)
	}
}

// Snapshot digests the tracker.
func (c *ChainTracker) Snapshot() ChainStats {
	s := ChainStats{
		BlocksAdded:     c.Added.Load(),
		BlocksCommitted: c.Committed.Load(),
		ViewsEntered:    c.Views.Load(),
		TxCommitted:     c.TxCommitted.Load(),
		Cohort:          len(c.Proposers),
	}
	if s.BlocksAdded > 0 {
		s.CGR = min(float64(s.BlocksCommitted)/float64(s.BlocksAdded), 1)
	}
	if s.BlocksCommitted > 0 {
		s.BI = float64(c.biSum.Load()) / float64(s.BlocksCommitted)
	}
	for i, p := range c.Proposers {
		if n := p.Load(); n > 0 {
			if s.ProposerCommits == nil {
				s.ProposerCommits = make(map[uint32]uint64, len(c.Proposers))
			}
			s.ProposerCommits[uint32(i+1)] = n
		}
	}
	s.Gini = s.giniFromCommits()
	s.Stages = make(map[string]HistData, numStages)
	for i, h := range c.Stages {
		s.Stages[StageNames[i]] = h.Export()
	}
	return s
}

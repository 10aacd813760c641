package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/trace"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// laggardTimeline renders the catch-up timeline of the replica that
// ended lowest, so a failed recovery verdict says whether its episodes
// stalled, gave up or were only slow. Times count from its first event.
func laggardTimeline(res *Result) string {
	lag := 0
	for i, h := range res.Heights {
		if h < res.Heights[lag] {
			lag = i
		}
	}
	var evs []trace.Event
	if lag < len(res.SyncEvents) {
		evs = res.SyncEvents[lag]
	}
	if len(evs) == 0 {
		return fmt.Sprintf("replica %d ran no catch-up episode", lag+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "replica %d catch-up timeline:", lag+1)
	for _, e := range evs {
		fmt.Fprintf(&b, "\n  +%v %s", time.Duration(e.Time-evs[0].Time).Round(time.Millisecond), e.Kind)
		if e.Node != 0 {
			fmt.Fprintf(&b, " node=%d", e.Node)
		}
		if e.Height != 0 {
			fmt.Fprintf(&b, " height=%d", e.Height)
		}
	}
	return b.String()
}

// TestDeepCatchUpRecovery is the regression test for the liveness hole
// ledger-backed state sync closes: one replica is partitioned away
// while the remaining four keep a quorum and commit past the forest
// keep window, so after the heal the deepest ancestors the replica
// would fetch have been compacted out of its peers' forests. Before
// state sync this replica kept voting but never committed again — the
// known limitation ROADMAP used to document, which examples/scenarios
// dodged with a quorum-less 2/2 split. Now it must stream the gap from
// a peer's ledger, re-commit, and serve client requests again, and the
// harness result must say so.
//
// n is 5, not 4: under rotating leaders a partitioned replica's leader
// slots go silent AND the votes routed to it die, so at n=4 the
// survivors never certify three consecutive views and the whole
// cluster stalls (nobody outruns anything). At n=5 the three-leader
// run 3→4→5 stays intact every rotation, so the majority commits
// throughout the partition at the view-timeout cadence — which also
// makes the gap depth race-detector-proof, since it is clocked by the
// 150ms view timer rather than by host speed.
func TestDeepCatchUpRecovery(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	cfg.N = 5
	// The minimum keep window makes the timeout-paced majority-side
	// gap "deep" within a couple of seconds.
	cfg.ForestKeep = 8
	exp := Experiment{
		Name:     "deep-partition-recovery",
		Config:   cfg,
		Workload: workload.Spec{Kind: workload.KindKV, Keys: 256, WriteRatio: 0.5},
		Faults: FaultSchedule{
			// A 1/4 split: the majority keeps quorum (4 of 5) and
			// commits throughout, which is precisely what makes the
			// isolated replica's gap outrun the keep window.
			PartitionAt(500*time.Millisecond, map[types.NodeID]int{2: 1}),
			HealAt(2500 * time.Millisecond),
		},
		Measure: MeasurePlan{
			Warmup:      200 * time.Millisecond,
			Window:      4 * time.Second,
			Concurrency: 16,
			// Short per-op timeout: workers whose transaction lands on
			// the partitioned replica give up and resubmit quickly.
			PerOpTimeout: 400 * time.Millisecond,
			Bucket:       250 * time.Millisecond,
		},
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || res.Violations != 0 {
		t.Fatalf("deep-partition run inconsistent: consistent=%v violations=%d",
			res.Consistent, res.Violations)
	}
	if res.Points[0].Throughput <= 0 {
		t.Fatal("majority side committed nothing")
	}

	// The headline: the isolated replica re-committed. Recovered means
	// every honest replica ended within one keep window of the highest
	// honest height — impossible for node 2 without deep sync, since
	// the partition-era gap exceeded the window.
	if !res.Recovered {
		t.Fatalf("partitioned replica never recovered: heights %v\n%s", res.Heights, laggardTimeline(res))
	}
	if len(res.Heights) != cfg.N {
		t.Fatalf("heights for %d replicas, want %d", len(res.Heights), cfg.N)
	}

	// And it recovered through state sync, not luck: ranged batches
	// were requested, served, and applied, at least a full keep window
	// deep. The 2s partition at the ~450ms commit-wave cadence leaves
	// a gap of roughly 12–20 heights, so at least cfg.ForestKeep of
	// them had to arrive via sync.
	if res.Pipeline.SyncBlocksApplied < uint64(cfg.ForestKeep) {
		t.Fatalf("sync applied %d blocks, want at least %d (pipeline %+v)",
			res.Pipeline.SyncBlocksApplied, cfg.ForestKeep, res.Pipeline)
	}
	if res.Pipeline.SyncRequestsSent == 0 || res.Pipeline.SyncBatchesServed == 0 {
		t.Fatalf("sync counters missing a side: %+v", res.Pipeline)
	}
	// The isolated replica's episode reached the Result's timeline.
	if len(res.SyncEvents) != cfg.N || len(res.SyncEvents[1]) == 0 ||
		res.SyncEvents[1][0].Kind != trace.EventSyncStart {
		t.Fatalf("no catch-up timeline for replica 2: %+v", res.SyncEvents)
	}

	// The committed-rate timeline must show commits at the tail — the
	// cluster as a whole (client requests included) is live well after
	// the heal.
	if len(res.Series) < 8 {
		t.Fatalf("series too short: %d buckets", len(res.Series))
	}
	var tail float64
	for _, v := range res.Series[len(res.Series)-3:] {
		tail += v
	}
	if tail == 0 {
		t.Fatalf("no commits after heal: series %v", res.Series)
	}
}

// TestRecoveryVerdictFlagsLaggards: with persistence disabled the same
// deep partition must FAIL to recover — the verdict is a real signal,
// not a constant. (This is the old pre-state-sync behaviour, kept
// reachable through Config knobs for exactly this kind of control.)
func TestRecoveryVerdictFlagsLaggards(t *testing.T) {
	if testing.Short() {
		t.Skip("control run for the recovery verdict")
	}
	cfg := testConfig(config.ProtocolHotStuff)
	cfg.N = 5
	cfg.ForestKeep = 8
	exp := Experiment{
		Name:     "deep-partition-no-ledger",
		Config:   cfg,
		Workload: workload.Spec{Kind: workload.KindKV, Keys: 64, WriteRatio: 0.5},
		Faults: FaultSchedule{
			PartitionAt(400*time.Millisecond, map[types.NodeID]int{2: 1}),
			HealAt(2400 * time.Millisecond),
		},
		Measure: MeasurePlan{
			Warmup:       150 * time.Millisecond,
			Window:       3200 * time.Millisecond,
			Concurrency:  16,
			PerOpTimeout: 400 * time.Millisecond,
		},
		DisableLedger: true,
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered {
		t.Fatalf("ledger-less replica reported recovered across a deep gap: heights %v", res.Heights)
	}
	if res.Pipeline.SyncBlocksApplied != 0 {
		t.Fatalf("sync applied %d blocks with no ledger to serve from", res.Pipeline.SyncBlocksApplied)
	}
}

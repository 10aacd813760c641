package harness

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// writeScenario drops a scenario body into a temp file.
func writeScenario(t *testing.T, body []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotCatchUpRecovery is the regression test for O(state)
// catch-up: with SnapshotInterval set, replicas snapshot every 8
// committed heights and compact their ledgers to the snapshot — so
// when a replica is partitioned away long enough, the history it is
// missing no longer exists as blocks ANYWHERE: every peer's ledger
// floor has moved past its head. Block-by-block catch-up (PR 3's
// path) is structurally impossible; the replica must fetch a
// manifest, cross-check it against f+1 peers, stream the state, and
// fast-forward only the suffix. The harness result must show exactly
// that: recovered, at least one snapshot install, and sync traffic
// bounded by the suffix rather than the gap.
//
// n is 5 for the same reason as TestDeepCatchUpRecovery: the 4-strong
// majority keeps committing throughout the partition, which is what
// drives its snapshot floor past the isolated replica.
func TestSnapshotCatchUpRecovery(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	cfg.N = 5
	cfg.ForestKeep = 8
	cfg.SnapshotInterval = 8
	exp := Experiment{
		Name:   "snapshot-catchup",
		Config: cfg,
		// The hot-key dial doubles as integration coverage for the
		// contention workload knob: half the traffic hammers 16 keys.
		Workload: workload.Spec{Kind: workload.KindKV, Keys: 256, WriteRatio: 0.5,
			HotKeys: 16, HotFraction: 0.5},
		Faults: FaultSchedule{
			PartitionAt(500*time.Millisecond, map[types.NodeID]int{2: 1}),
			HealAt(3 * time.Second),
		},
		Measure: MeasurePlan{
			Warmup:       200 * time.Millisecond,
			Window:       5 * time.Second,
			Concurrency:  16,
			PerOpTimeout: 400 * time.Millisecond,
			Bucket:       250 * time.Millisecond,
		},
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || res.Violations != 0 {
		t.Fatalf("snapshot-catchup run inconsistent: consistent=%v violations=%d",
			res.Consistent, res.Violations)
	}
	if !res.Recovered {
		t.Fatalf("isolated replica never recovered: heights %v\n%s", res.Heights, laggardTimeline(res))
	}

	// The headline: recovery went through a snapshot install, not a
	// block stream of the gap.
	if res.Pipeline.SnapshotInstalls < 1 {
		t.Fatalf("no snapshot installed (pipeline %+v)", res.Pipeline)
	}
	if res.Pipeline.SnapshotsServed < 1 {
		t.Fatal("no peer served a manifest")
	}
	if len(res.SnapshotHeights) != cfg.N {
		t.Fatalf("snapshot heights for %d replicas, want %d", len(res.SnapshotHeights), cfg.N)
	}
	installed := res.SnapshotHeights[1] // node 2, the isolated replica
	if installed == 0 {
		t.Fatalf("isolated replica reports no snapshot: %v", res.SnapshotHeights)
	}
	if installed <= uint64(cfg.ForestKeep) {
		t.Fatalf("install height %d not past the keep window — gap was shallow", installed)
	}

	// Sync applied at most the suffix above the install point (with
	// slack for a renegotiated install when peers compacted onward
	// mid-transfer) — the O(state)-not-O(chain) bound.
	var maxHeight uint64
	for _, h := range res.Heights {
		if h > maxHeight {
			maxHeight = h
		}
	}
	bound := maxHeight - installed + uint64(2*cfg.SnapshotInterval)
	if res.Pipeline.SyncBlocksApplied > bound {
		t.Fatalf("sync streamed %d blocks, want at most the suffix %d (heights %v, installs at %v)",
			res.Pipeline.SyncBlocksApplied, bound, res.Heights, res.SnapshotHeights)
	}
	// Every majority replica captured snapshots of its own.
	for i, sh := range res.SnapshotHeights {
		if types.NodeID(i+1) == 2 {
			continue
		}
		if sh == 0 {
			t.Fatalf("replica %d captured no snapshot: %v", i+1, res.SnapshotHeights)
		}
	}
	// Fresh temp-dir ledgers: restart replay must not have fired.
	if res.Pipeline.ReplayedBlocks != 0 {
		t.Fatalf("ReplayedBlocks = %d on fresh ledgers", res.Pipeline.ReplayedBlocks)
	}
	// Liveness after the heal: commits at the tail of the timeline.
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

// TestCommittedSnapshotScenarioStaysValid guards the repository's
// snapshot-catchup scenario — the input of the snapshot-smoke CI
// gate: if a refactor breaks its schema or waters down its fault
// timeline, this fails before CI burns a full run on it.
func TestCommittedSnapshotScenarioStaysValid(t *testing.T) {
	exp, err := LoadExperiment(filepath.Join("..", "..", "examples", "scenarios", "snapshot-catchup.json"))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name != "snapshot-catchup" {
		t.Fatalf("unexpected scenario name %q", exp.Name)
	}
	if exp.Config.SnapshotInterval == 0 {
		t.Fatal("committed scenario lost its snapshot interval")
	}
	if exp.Workload.HotKeys == 0 || exp.Workload.HotFraction == 0 {
		t.Fatal("committed scenario lost its hot-key dial")
	}
	// The CI gate's value hangs on a deep partition (compacted
	// history) plus a crash/restart leg; keep the file honest.
	legs := faultLegs(exp.Faults)
	for _, want := range []string{"partition", "heal", "crash", "restart"} {
		if !legs[want] {
			t.Fatalf("committed scenario lost its %s event", want)
		}
	}
}

// TestScenarioDeclaresSnapshotKnobs: the new configuration and
// workload knobs ride through a declared scenario file (strict
// unknown-field rejection still on), and a typo'd knob still fails
// loudly.
func TestScenarioDeclaresSnapshotKnobs(t *testing.T) {
	good := []byte(`{
		"name": "snap",
		"config": {"n": 4, "protocol": "hotstuff", "forestKeep": 8, "snapshotInterval": 16},
		"workload": {"kind": "kv", "hotKeys": 8, "hotFraction": 0.9},
		"measure": {"window": 1000000}
	}`)
	path := writeScenario(t, good)
	exp, err := LoadExperiment(path)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Config.SnapshotInterval != 16 || exp.Config.ForestKeep != 8 {
		t.Fatalf("snapshot knobs lost in transit: %+v", exp.Config)
	}
	if exp.Workload.HotKeys != 8 || exp.Workload.HotFraction != 0.9 {
		t.Fatalf("hot-key knobs lost in transit: %+v", exp.Workload)
	}

	typod := []byte(`{
		"config": {"n": 4, "protocol": "hotstuff", "snapshotIntervall": 16},
		"measure": {"window": 1000000}
	}`)
	if _, err := LoadExperiment(writeScenario(t, typod)); err == nil {
		t.Fatal("misspelled snapshot knob accepted")
	}

	// An interval below the keep window must fail validation, not
	// run with a broken serving configuration.
	tooSmall := []byte(`{
		"config": {"n": 4, "protocol": "hotstuff", "snapshotInterval": 8},
		"measure": {"window": 1000000}
	}`)
	if _, err := LoadExperiment(writeScenario(t, tooSmall)); err == nil {
		t.Fatal("snapshot interval below the keep window accepted")
	}
}

package cluster

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestStagedCommitDrainsOnStop: every block committed before Stop
// finishes executing on the apply stage before Stop returns, and each
// replica's kvstore matches its own committed transaction count
// exactly.
func TestStagedCommitDrainsOnStop(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	c := startCluster(t, cfg, Options{WithStores: true})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !cl.SubmitAndWait(5 * time.Second) {
			t.Fatalf("transaction %d did not commit", i)
		}
	}
	cl.Stop()
	c.Stop() // drains the apply queues (idempotent with the cleanup)
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		committed := c.Node(id).Tracker().Snapshot().TxCommitted
		applied := c.Store(id).Applied()
		if applied != committed {
			t.Fatalf("replica %s: applied %d of %d committed transactions after Stop",
				id, applied, committed)
		}
	}
	if p := c.AggregatePipeline(); p.BlocksApplied == 0 {
		t.Fatal("apply stage never ran")
	}
}

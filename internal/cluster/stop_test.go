package cluster

import (
	"os"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// TestStopIsIdempotent: the harness's defer-based teardown and
// explicit shutdown paths may both call Stop; the second and later
// calls must be no-ops instead of re-closing the switch and ledgers.
func TestStopIsIdempotent(t *testing.T) {
	cfg := testConfig(config.ProtocolHotStuff)
	c, err := New(cfg, Options{LedgerDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	drive(t, c, 4, 300*time.Millisecond)
	c.Stop()
	c.Stop() // must not panic or double-close
	c.Stop()
	if err := c.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestStopBeforeStart: a caller that bails out between New and Start
// still gets a prompt teardown — replicas have no event loop to wait
// for, so Stop goes straight on to closing every ledger and WAL and
// removing the temporary ledger directory.
func TestStopBeforeStart(t *testing.T) {
	c, err := New(testConfig(config.ProtocolHotStuff), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir, durable := c.tmpLedgerDir, c.durable
	if dir == "" || len(durable) != c.cfg.N {
		t.Fatalf("cluster has dir %q and stores for %d replicas; want a dir and %d", dir, len(durable), c.cfg.N)
	}
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop on a never-started cluster did not return within 2s")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("temporary ledger dir %s survives Stop (stat err %v)", dir, err)
	}
	for _, st := range durable {
		if err := st.Ledger.AppendCertified(&types.Block{View: 1}, 1, nil); err == nil {
			t.Fatal("a ledger is still open after Stop")
		}
		if err := st.WAL.Append(wal.Record{CurView: 1}); err == nil {
			t.Fatal("a WAL is still open after Stop")
		}
	}
}

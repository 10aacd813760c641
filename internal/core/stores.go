package core

import (
	"errors"

	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// Durability says how far a replica's stores carry a write before the
// replica moves on.
type Durability int

const (
	// DurabilityBuffered is the in-process cluster's default: the
	// ledger holds up to 64 KiB of committed records in memory and the
	// safety WAL writes without fsync. An in-process "crash" never
	// takes the page cache or the node's memory with it, so this
	// suffices there; a real process crash loses the buffered tail.
	DurabilityBuffered Durability = iota
	// DurabilityWriteThrough writes every ledger record to the kernel
	// before the commit path moves on, so the files hold the footprint
	// a real process crash leaves; the WAL still skips fsync. A
	// switch/tcp scenario that must model that footprint uses it.
	DurabilityWriteThrough
	// DurabilitySynced is bamboo-server's. The ledger writes through:
	// a server's crash story is the process dying (SIGKILL from a
	// supervisor, OOM), and surviving that only needs each record in
	// the kernel, at one write syscall per commit, so restart replay
	// reflects every height the replica reported committed. The WAL
	// fsyncs every append: it holds the promises the replica made to
	// its peers (the views it signed), and a vote that outlives the
	// machine while its record does not is an equivocation waiting for
	// a restart. It is a few hundred bytes per vote, the cheap end of
	// the durability budget. (Machine-crash durability for the ledger
	// would need fsync too, a different trade.)
	DurabilitySynced
)

// Stores is a replica's durable state, opened from one path by
// OpenStores.
type Stores struct {
	// Ledger is the committed chain, at the path itself.
	Ledger *ledger.Ledger
	// WAL is the safety log, at path+".wal".
	WAL *wal.WAL
	// Snapshots is the snapshot store, at path+".snap"; nil for a
	// replica without a state machine.
	Snapshots *snapshot.Store
}

// OpenStores opens a replica's durable state from a single path, in
// this order: the ledger at path, the safety WAL at path+".wal" and,
// when withState (a snapshot serializes the state machine), the
// snapshot store at path+".snap". A failed open closes what was already
// opened. A restarted replica that reopens the same path resumes its
// chain, its safety state and its latest snapshot.
func OpenStores(path string, d Durability, withState bool) (*Stores, error) {
	openLedger, openWAL := ledger.OpenBuffered, wal.OpenNoSync
	switch d {
	case DurabilityWriteThrough:
		openLedger = ledger.Open
	case DurabilitySynced:
		openLedger, openWAL = ledger.Open, wal.Open
	}
	led, err := openLedger(path)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(path + ".wal")
	if err != nil {
		_ = led.Close()
		return nil, err
	}
	s := &Stores{Ledger: led, WAL: w}
	if withState {
		if s.Snapshots, err = snapshot.OpenStore(path + ".snap"); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close flushes and closes the ledger and the WAL; the snapshot store
// keeps no file open.
func (s *Stores) Close() error {
	return errors.Join(s.Ledger.Close(), s.WAL.Close())
}

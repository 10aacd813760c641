// Package mempool implements the memory pool of Section III-E: a
// bidirectional queue in which new transactions are inserted at the
// back while transactions recovered from forked blocks are re-inserted
// at the front. Membership is tracked so each node avoids duplicate
// queuing without a global duplication check.
//
// The pool is safe for concurrent use: client-facing goroutines add
// transactions while the replica's event loop batches them.
package mempool

import (
	"errors"
	"sync"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// Errors reported by Add.
var (
	ErrFull      = errors.New("mempool: full")
	ErrDuplicate = errors.New("mempool: duplicate transaction")
)

// Stats counts the pool's admission decisions over its lifetime.
type Stats struct {
	// Admitted counts transactions accepted by Add (Requeue re-entries
	// are not admissions; they were counted when first accepted).
	Admitted uint64
	// Rejected counts transactions turned away with ErrFull — the
	// overload signal the admission-control experiments measure.
	Rejected uint64
}

// Pool is a capacity-bounded transaction deque with a membership set
// keyed by transaction ID.
type Pool struct {
	mu      sync.Mutex
	q       deque
	members map[types.TxID]struct{}
	cap     int
	stats   Stats
}

// New creates a pool holding at most capacity transactions (Table I
// "memsize"), rejecting admissions past it: the client sees a typed
// rejection (HTTP 429 on the API) and decides whether to back off and
// retry.
func New(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		// No size hint: a pool is built per replica at cluster assembly,
		// and a map pre-sized to a Table I memsize is megabytes of
		// pointer-bearing buckets to clear there and to scan in every GC
		// cycle after. It grows to what the load actually queues.
		members: make(map[types.TxID]struct{}),
		cap:     capacity,
	}
}

// Add appends a new client transaction at the back of the queue. A
// full pool reports ErrFull, and the rejection is counted in Stats.
func (p *Pool) Add(tx types.Transaction) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.members[tx.ID]; dup {
		return ErrDuplicate
	}
	if len(p.members) >= p.cap {
		p.stats.Rejected++
		return ErrFull
	}
	p.stats.Admitted++
	p.members[tx.ID] = struct{}{}
	p.q.pushBack(tx)
	return nil
}

// Requeue re-inserts transactions recovered from forked blocks at the
// front of the queue, preserving their relative order. Duplicates are
// skipped. Requeued transactions were already admitted once, so they
// may transiently push the pool past its capacity rather than being
// dropped. It returns the number of transactions accepted.
func (p *Pool) Requeue(txs []types.Transaction) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	accepted := 0
	// Walk in reverse so that pushFront preserves original order.
	for i := len(txs) - 1; i >= 0; i-- {
		tx := txs[i]
		if _, dup := p.members[tx.ID]; dup {
			continue
		}
		p.members[tx.ID] = struct{}{}
		p.q.pushFront(tx)
		accepted++
	}
	return accepted
}

// Batch removes and returns up to max transactions from the front —
// the paper's simple batching strategy: the proposer takes everything
// available when the pool holds fewer than the target block size.
// Entries removed lazily by Remove are skipped and reclaimed here.
func (p *Pool) Batch(max int) []types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.members)
	if n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]types.Transaction, 0, n)
	for len(out) < max {
		tx, ok := p.q.popFront()
		if !ok {
			break
		}
		if _, live := p.members[tx.ID]; !live {
			continue // ghost: removed while queued
		}
		delete(p.members, tx.ID)
		out = append(out, tx)
	}
	return out
}

// removeCompactFloor is the minimum ghost count before Remove compacts
// the deque eagerly.
const removeCompactFloor = 1024

// Remove drops the given transactions if still queued — used when a
// block commits carrying transactions this node also holds (e.g. a
// synced or fanned-out payload, or a fork recycled into a competing
// proposal). It returns the number of transactions removed.
//
// Deletion is lazy — the membership index is the source of truth and
// deque entries linger as ghosts that Batch skips — so the hot path
// costs O(ids) instead of O(pool). The deque compacts only when
// ghosts clearly outnumber live entries.
func (p *Pool) Remove(ids []types.TxID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	removed := 0
	for _, id := range ids {
		if _, ok := p.members[id]; !ok {
			continue
		}
		delete(p.members, id)
		removed++
	}
	if removed == 0 {
		return 0
	}
	if ghosts := p.q.len() - len(p.members); ghosts > removeCompactFloor && ghosts > len(p.members) {
		p.q.filter(func(tx types.Transaction) bool {
			_, keep := p.members[tx.ID]
			return keep
		})
	}
	return removed
}

// Contains reports whether the transaction is queued.
func (p *Pool) Contains(id types.TxID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.members[id]
	return ok
}

// Len returns the number of queued (live) transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.members)
}

// Cap returns the configured capacity.
func (p *Pool) Cap() int { return p.cap }

// Stats returns the pool's admission counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// deque is a growable ring buffer of transactions.
type deque struct {
	buf   []types.Transaction
	head  int
	count int
}

func (d *deque) len() int { return d.count }

func (d *deque) grow() {
	newCap := len(d.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]types.Transaction, newCap)
	for i := 0; i < d.count; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

func (d *deque) pushBack(tx types.Transaction) {
	if d.count == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.count)%len(d.buf)] = tx
	d.count++
}

func (d *deque) pushFront(tx types.Transaction) {
	if d.count == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = tx
	d.count++
}

func (d *deque) popFront() (types.Transaction, bool) {
	if d.count == 0 {
		return types.Transaction{}, false
	}
	tx := d.buf[d.head]
	d.buf[d.head] = types.Transaction{} // release payload memory
	d.head = (d.head + 1) % len(d.buf)
	d.count--
	return tx, true
}

// filter keeps only transactions satisfying keep, preserving order.
func (d *deque) filter(keep func(types.Transaction) bool) {
	kept := make([]types.Transaction, 0, len(d.buf))
	for i := 0; i < d.count; i++ {
		tx := d.buf[(d.head+i)%len(d.buf)]
		if keep(tx) {
			kept = append(kept, tx)
		}
	}
	d.count = len(kept)
	d.head = 0
	// Ring indexing assumes len(buf) == cap(buf); a single re-slice
	// to full capacity restores that after the compaction.
	d.buf = kept[:cap(kept)]
}

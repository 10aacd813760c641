// Package trace is the replica's always-on block-lifecycle tracer:
// every block the replica touches gets a span record stamped at each
// stage of its life (proposed, received, verified, voted, QC formed,
// committed, executed, replied), interleaved with per-view events
// (view entered, leader elected, timeout fired, WAL sync, sync
// episode boundaries). Spans and events live in bounded lock-free
// rings — fixed memory, oldest evicted first — so the tracer can stay
// on in production and under benchmark load without skewing the
// numbers it exists to explain: a stage stamp is one index lookup and
// one atomic compare-and-swap, and nothing on the hot path allocates
// after the span is created.
//
// The ring contents export two ways: a JSON snapshot (GET
// /debug/trace) for programmatic consumers, and the Chrome
// trace-event format (GET /debug/trace?format=chrome) that
// chrome://tracing and Perfetto load directly, rendering a committed
// block's life as stacked stage slices on a per-stage lane timeline.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// Default ring capacities: enough for several measurement windows of
// history at benchmark commit rates, small enough (~1 MB of spans)
// that an always-on tracer is free.
const (
	DefaultSpanCapacity  = 4096
	DefaultEventCapacity = 16384
)

// span is the internal, concurrently stamped record. Identity fields
// are written once before the span is published (publication through
// the sync.Map and the ring's atomic pointer orders them); stage
// stamps are write-once unix-nano CAS cells, so whichever path
// reaches a stage first owns the timestamp and replays cannot move
// it.
type span struct {
	block    types.Hash
	view     types.View
	proposer types.NodeID
	seq      uint64 // ring sequence, for oldest-first export

	height atomic.Uint64
	txs    atomic.Int64

	proposed  atomic.Int64
	received  atomic.Int64
	verified  atomic.Int64
	voted     atomic.Int64
	qcFormed  atomic.Int64
	committed atomic.Int64
	executed  atomic.Int64
	replied   atomic.Int64
}

// stamp records t into cell once; the first writer wins.
func stamp(cell *atomic.Int64, t int64) { cell.CompareAndSwap(0, t) }

// Span is the exported form of one block's lifecycle: identity plus
// the stage timestamps in unix nanoseconds (0 = the block never
// reached that stage on this replica).
type Span struct {
	Block    string       `json:"block"`
	View     types.View   `json:"view"`
	Proposer types.NodeID `json:"proposer"`
	Height   uint64       `json:"height,omitempty"`
	Txs      int64        `json:"txs"`

	Proposed  int64 `json:"proposed,omitempty"`
	Received  int64 `json:"received,omitempty"`
	Verified  int64 `json:"verified,omitempty"`
	Voted     int64 `json:"voted,omitempty"`
	QCFormed  int64 `json:"qcFormed,omitempty"`
	Committed int64 `json:"committed,omitempty"`
	Executed  int64 `json:"executed,omitempty"`
	Replied   int64 `json:"replied,omitempty"`
}

func (s *span) export() Span {
	return Span{
		Block:    s.block.String(),
		View:     s.view,
		Proposer: s.proposer,
		Height:   s.height.Load(),
		Txs:      s.txs.Load(),

		Proposed:  s.proposed.Load(),
		Received:  s.received.Load(),
		Verified:  s.verified.Load(),
		Voted:     s.voted.Load(),
		QCFormed:  s.qcFormed.Load(),
		Committed: s.committed.Load(),
		Executed:  s.executed.Load(),
		Replied:   s.replied.Load(),
	}
}

// Event kinds.
const (
	EventViewEntered   = "view-entered"
	EventLeaderElected = "leader-elected"
	EventTimeout       = "timeout-fired"
	EventWALSync       = "wal-sync"
	EventSyncStart     = "sync-start"
	EventSyncManifests = "sync-manifests"
	EventSyncChunks    = "sync-chunks"
	EventSyncInstall   = "sync-install"
	EventSyncEnd       = "sync-end"
)

// syncLogCap bounds the sync log: the last catch-up events, kept apart
// from the event ring, which view events would evict within seconds.
const syncLogCap = 256

// Event is one per-view occurrence interleaved with the spans.
type Event struct {
	Time int64      `json:"time"` // unix nanoseconds
	Kind string     `json:"kind"`
	View types.View `json:"view,omitempty"`
	// Node names the event's subject where one exists: the elected
	// leader of a view-entered event, the serving peer of a sync-start
	// or sync-chunks.
	Node types.NodeID `json:"node,omitempty"`
	// Height is the committed height at a sync-start or sync-end, and
	// the snapshot height of a sync-chunks or sync-install.
	Height uint64 `json:"height,omitempty"`
	// Dur carries a duration where the event has one (the fsync wait
	// of a WAL sync), in nanoseconds.
	Dur int64 `json:"dur,omitempty"`
}

// Tracer holds the two rings. All methods are safe for concurrent
// use; the zero value is NOT ready — use New.
type Tracer struct {
	id types.NodeID

	spans   []atomic.Pointer[span]
	spanSeq atomic.Uint64
	// index finds the live span for a block hash. Entries die with
	// their ring slot (evicted oldest-first), so the index is bounded
	// by the ring.
	index sync.Map // types.Hash -> *span

	events   []atomic.Pointer[Event]
	eventSeq atomic.Uint64

	syncMu  sync.Mutex
	syncLog []Event
}

// New creates a tracer for one replica with the given ring
// capacities (<= 0 selects the defaults).
func New(id types.NodeID, spanCap, eventCap int) *Tracer {
	if spanCap <= 0 {
		spanCap = DefaultSpanCapacity
	}
	if eventCap <= 0 {
		eventCap = DefaultEventCapacity
	}
	return &Tracer{
		id:     id,
		spans:  make([]atomic.Pointer[span], spanCap),
		events: make([]atomic.Pointer[Event], eventCap),
	}
}

// ensure returns the block's live span, creating and ring-inserting
// one on first touch. Creation is LoadOrStore-guarded, so concurrent
// first touches converge on one span.
func (t *Tracer) ensure(h types.Hash, view types.View, proposer types.NodeID) *span {
	if v, ok := t.index.Load(h); ok {
		return v.(*span)
	}
	sp := &span{block: h, view: view, proposer: proposer}
	if v, loaded := t.index.LoadOrStore(h, sp); loaded {
		return v.(*span)
	}
	// Claim a ring slot; the evicted occupant leaves the index with
	// it (CompareAndDelete: a hash-reuse race must not unlink a newer
	// span).
	sp.seq = t.spanSeq.Add(1) - 1
	if old := t.spans[sp.seq%uint64(len(t.spans))].Swap(sp); old != nil {
		t.index.CompareAndDelete(old.block, old)
	}
	return sp
}

// lookup returns the live span, or nil — later-stage stamps never
// resurrect an evicted or never-seen block.
func (t *Tracer) lookup(h types.Hash) *span {
	if v, ok := t.index.Load(h); ok {
		return v.(*span)
	}
	return nil
}

func now() int64 { return time.Now().UnixNano() }

// OnProposed stamps block creation on the proposing replica.
func (t *Tracer) OnProposed(h types.Hash, view types.View, proposer types.NodeID, txs int) {
	sp := t.ensure(h, view, proposer)
	ts := now()
	sp.txs.Store(int64(txs))
	stamp(&sp.proposed, ts)
	// The proposer's own copy needs no dissemination or verification.
	stamp(&sp.received, ts)
	stamp(&sp.verified, ts)
}

// OnReceived stamps proposal arrival (span creation on followers).
func (t *Tracer) OnReceived(h types.Hash, view types.View, proposer types.NodeID, txs int) {
	sp := t.ensure(h, view, proposer)
	if txs > 0 {
		sp.txs.Store(int64(txs))
	}
	stamp(&sp.received, now())
}

// OnVerified stamps the proposal's signatures checking out.
func (t *Tracer) OnVerified(h types.Hash) {
	if sp := t.lookup(h); sp != nil {
		stamp(&sp.verified, now())
	}
}

// OnVoted stamps this replica's vote leaving.
func (t *Tracer) OnVoted(h types.Hash) {
	if sp := t.lookup(h); sp != nil {
		stamp(&sp.voted, now())
	}
}

// OnQCFormed stamps the block's certificate being seen (formed
// locally or carried by a later proposal).
func (t *Tracer) OnQCFormed(h types.Hash) {
	if sp := t.lookup(h); sp != nil {
		stamp(&sp.qcFormed, now())
	}
}

// OnCommitted stamps the commit rule finalizing the block.
func (t *Tracer) OnCommitted(h types.Hash, height uint64, txs int) {
	if sp := t.lookup(h); sp != nil {
		sp.height.Store(height)
		if txs > 0 {
			sp.txs.Store(int64(txs))
		}
		stamp(&sp.committed, now())
	}
}

// OnExecuted stamps the state machine finishing the block's payload
// and returns the span (complete through execution) for per-stage
// histogram derivation; ok is false for blocks outside the ring.
func (t *Tracer) OnExecuted(h types.Hash) (Span, bool) {
	sp := t.lookup(h)
	if sp == nil {
		return Span{}, false
	}
	stamp(&sp.executed, now())
	return sp.export(), true
}

// OnReplied stamps the commit replies to owned clients going out.
func (t *Tracer) OnReplied(h types.Hash) {
	if sp := t.lookup(h); sp != nil {
		stamp(&sp.replied, now())
	}
}

// event stamps e and appends it to the event ring.
func (t *Tracer) event(e Event) Event {
	e.Time = now()
	seq := t.eventSeq.Add(1) - 1
	t.events[seq%uint64(len(t.events))].Store(&e)
	return e
}

// OnSync records one step of a deep catch-up episode — kind is one of
// the EventSync kinds — with its serving peer and height where it has
// them (see Event), in the event ring and in the sync log.
func (t *Tracer) OnSync(kind string, peer types.NodeID, height uint64) {
	e := t.event(Event{Kind: kind, Node: peer, Height: height})
	t.syncMu.Lock()
	defer t.syncMu.Unlock()
	if len(t.syncLog) == syncLogCap {
		t.syncLog = append(t.syncLog[:0], t.syncLog[1:]...)
	}
	t.syncLog = append(t.syncLog, e)
}

// SyncEvents returns the last catch-up events (up to 256), oldest
// first.
func (t *Tracer) SyncEvents() []Event {
	t.syncMu.Lock()
	defer t.syncMu.Unlock()
	return append([]Event(nil), t.syncLog...)
}

// OnViewEntered records the replica entering a view under the given
// leader — and, when this replica is that leader, its election.
func (t *Tracer) OnViewEntered(view types.View, leader types.NodeID) {
	t.event(Event{Kind: EventViewEntered, View: view, Node: leader})
	if leader == t.id {
		t.event(Event{Kind: EventLeaderElected, View: view, Node: leader})
	}
}

// OnTimeout records a view timeout firing (a signed timeout share
// leaving the node).
func (t *Tracer) OnTimeout(view types.View) {
	t.event(Event{Kind: EventTimeout, View: view})
}

// OnWALSync records one durable safety sync and its fsync wait.
func (t *Tracer) OnWALSync(view types.View, d time.Duration) {
	t.event(Event{Kind: EventWALSync, View: view, Dur: int64(d)})
}

// Export is the JSON shape of GET /debug/trace: the ring contents,
// oldest first, plus how much history the rings have evicted.
type Export struct {
	Node types.NodeID `json:"node"`
	// SpanCapacity/EventCapacity are the ring bounds; Spans/Events
	// hold at most that many records. Dropped counts records evicted
	// to admit newer ones (lifetime, not since last export).
	SpanCapacity  int     `json:"spanCapacity"`
	EventCapacity int     `json:"eventCapacity"`
	SpansDropped  uint64  `json:"spansDropped"`
	EventsDropped uint64  `json:"eventsDropped"`
	Spans         []Span  `json:"spans"`
	Events        []Event `json:"events"`
}

// Snapshot exports the ring contents oldest-first. Concurrent
// stamping keeps running; the snapshot is per-field atomic, not a
// consistent cut — exactly what a debugging export needs to be.
func (t *Tracer) Snapshot() Export {
	ex := Export{
		Node:          t.id,
		SpanCapacity:  len(t.spans),
		EventCapacity: len(t.events),
	}
	spanSeq := t.spanSeq.Load()
	if over := spanSeq; over > uint64(len(t.spans)) {
		ex.SpansDropped = over - uint64(len(t.spans))
	}
	start := uint64(0)
	if spanSeq > uint64(len(t.spans)) {
		start = spanSeq - uint64(len(t.spans))
	}
	for seq := start; seq < spanSeq; seq++ {
		sp := t.spans[seq%uint64(len(t.spans))].Load()
		if sp == nil || sp.seq < seq {
			continue
		}
		ex.Spans = append(ex.Spans, sp.export())
	}
	eventSeq := t.eventSeq.Load()
	if eventSeq > uint64(len(t.events)) {
		ex.EventsDropped = eventSeq - uint64(len(t.events))
	}
	start = 0
	if eventSeq > uint64(len(t.events)) {
		start = eventSeq - uint64(len(t.events))
	}
	for seq := start; seq < eventSeq; seq++ {
		if e := t.events[seq%uint64(len(t.events))].Load(); e != nil {
			ex.Events = append(ex.Events, *e)
		}
	}
	return ex
}

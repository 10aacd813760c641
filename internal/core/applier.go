package core

import (
	"time"

	"github.com/bamboo-bft/bamboo/internal/snapshot"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// defaultApplyQueue bounds the apply stage's backlog in blocks.
const defaultApplyQueue = 128

// applyJob is one committed block awaiting execution, or — when
// install is set — a verified peer snapshot awaiting installation.
// Riding installs through the same ordered queue is what keeps the
// state machine sequential: every block committed before the install
// finishes executing first, and every suffix block committed after it
// executes on top of the restored state.
type applyJob struct {
	block       *types.Block
	height      uint64
	committedAt time.Time
	// selfQC certifies the job's block (nil only when the forest had
	// no certificate recorded): persisted with the ledger record so a
	// restarted replica can extend its replayed tip.
	selfQC *types.QC
	// snapshot directs the apply stage to capture a state snapshot
	// (anchored by selfQC) right after executing the block — the
	// point where the state machine reflects exactly this height.
	snapshot bool
	// install, when non-nil, replaces block execution: restore the
	// state machine from the snapshot, re-base the ledger, and
	// persist the snapshot locally.
	install *snapshot.Snapshot
}

// applier is the ordered apply stage: one goroutine that runs, per
// committed block and in commit order, the ledger append, the Execute
// hook, the interval snapshot capture and the execute trace stamp, so
// block execution never stalls voting. The queue is bounded; when
// execution lags more than the queue's capacity behind consensus, the
// enqueue blocks the event loop — deliberate backpressure that slows
// voting instead of growing an unbounded backlog.
type applier struct {
	n    *Node
	jobs chan applyJob
	done chan struct{}
}

// newApplier starts the apply goroutine with a backlog of queue blocks.
func newApplier(n *Node, queue int) *applier {
	a := &applier{n: n, jobs: make(chan applyJob, queue), done: make(chan struct{})}
	go a.run()
	return a
}

// enqueue hands a committed block to the apply stage in commit order.
// The send blocks when the queue is full; the applier drains
// independently of the event loop, so this cannot deadlock.
func (a *applier) enqueue(job applyJob) {
	a.jobs <- job
}

// stop drains and joins the apply stage. Call only after the event
// loop has exited (no more enqueues); every block committed before
// shutdown is executed before stop returns.
func (a *applier) stop() {
	close(a.jobs)
	<-a.done
}

// run applies committed blocks (and snapshot installs) in order.
func (a *applier) run() {
	defer close(a.done)
	for job := range a.jobs {
		if job.install != nil {
			a.n.applyInstall(job.install)
			continue
		}
		if a.n.opts.Ledger != nil {
			// Persistence is best-effort relative to consensus: the
			// in-memory chain stays authoritative on append failure.
			_ = a.n.opts.Ledger.AppendCertified(job.block, job.height, job.selfQC)
		}
		if a.n.opts.Execute != nil {
			a.n.opts.Execute(job.block.Payload)
		}
		if job.snapshot {
			a.n.captureSnapshot(job.block, job.height, job.selfQC)
		}
		a.n.onExecuted(job.block.ID())
		a.n.pipeline.OnBlockApplied(time.Since(job.committedAt))
	}
}

package core

import (
	"runtime"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// verifyQueueCap bounds the off-loop verification queue; when full,
// the event loop verifies inline (graceful degradation instead of
// unbounded buffering).
const verifyQueueCap = 1024

// verifyBatchMax caps how many queued votes one worker folds into a
// single batch verification.
const verifyBatchMax = 32

// verifiedEnv re-injects a message whose signatures the verification
// pool has already checked, preserving the original sender.
type verifiedEnv struct {
	from types.NodeID
	msg  any
}

// verifyJob is one message awaiting signature verification.
type verifyJob struct {
	from types.NodeID
	msg  any
	enq  time.Time
}

// verifier is the bounded worker pool of pipeline stage 2: it checks
// proposal, vote, and timeout signatures off the event loop and
// re-injects verified events, so the forest and safety rules stay
// single-threaded and lock-free while crypto runs in parallel.
type verifier struct {
	n    *Node
	jobs chan verifyJob
	wg   sync.WaitGroup
}

// newVerifier starts `workers` verification goroutines (0 = NumCPU,
// capped at 8).
func newVerifier(n *Node, workers int) *verifier {
	if workers <= 0 {
		workers = runtime.NumCPU()
		if workers > 8 {
			workers = 8
		}
	}
	if workers < 1 {
		workers = 1
	}
	v := &verifier{n: n, jobs: make(chan verifyJob, verifyQueueCap)}
	v.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go v.worker()
	}
	return v
}

// submit queues a message for off-loop verification; false means the
// queue is full and the caller should verify inline.
func (v *verifier) submit(from types.NodeID, msg any) bool {
	select {
	case v.jobs <- verifyJob{from: from, msg: msg, enq: time.Now()}:
		return true
	default:
		return false
	}
}

// stop drains the workers. Call only after the event loop has exited
// (no more submissions).
func (v *verifier) stop() {
	close(v.jobs)
	v.wg.Wait()
}

// worker verifies jobs until the queue closes. Votes are drained
// opportunistically into one batch so a burst of n−1 vote signatures
// costs one batch-verification call.
func (v *verifier) worker() {
	defer v.wg.Done()
	for job := range v.jobs {
		if _, isVote := job.msg.(types.VoteMsg); !isVote {
			v.verifyOne(job)
			continue
		}
		votes := []verifyJob{job}
	drain:
		for len(votes) < verifyBatchMax {
			select {
			case next, open := <-v.jobs:
				if !open {
					break drain
				}
				if _, isVote := next.msg.(types.VoteMsg); isVote {
					votes = append(votes, next)
				} else {
					v.verifyOne(next)
				}
			default:
				break drain
			}
		}
		v.verifyVotes(votes)
	}
}

// inject hands a verified message back to the event loop.
func (v *verifier) inject(from types.NodeID, msg any) {
	select {
	case v.n.events <- verifiedEnv{from: from, msg: msg}:
	case <-v.n.stopCh:
	}
}

// verifyVotes batch-verifies a set of vote signatures; a forged vote
// in the batch is rejected individually without dropping the honest
// votes around it.
func (v *verifier) verifyVotes(jobs []verifyJob) {
	bv := crypto.NewBatchVerifier(v.n.scheme)
	for _, j := range jobs {
		vote := j.msg.(types.VoteMsg).Vote
		if vote == nil {
			continue
		}
		bv.Add(vote.Voter, types.SigningDigest(vote.View, vote.BlockID), vote.Sig)
	}
	sigs := bv.Len()
	ok, err := bv.Verify()
	v.n.pipeline.OnVerifyBatch(time.Since(jobs[0].enq), sigs, err != nil)
	i := 0
	for _, j := range jobs {
		if j.msg.(types.VoteMsg).Vote == nil {
			continue
		}
		if ok[i] {
			v.inject(j.from, j.msg)
		} else {
			v.n.pipeline.OnVerifyRejected()
		}
		i++
	}
}

// verifyOne checks a proposal, timeout, or TC message, mirroring the
// synchronous path's acceptance rules:
//
//   - proposal: proposer signature and embedded QC must verify (one
//     batch where the scheme has a batch equation; on failure the
//     signature must pass alone and the QC keeps the quorum-of-valid
//     rule) or the message is dropped; an invalid piggybacked TC is
//     stripped (the sync path rejects the TC but still processes the
//     proposal).
//   - timeout: the timeout signature must verify; an invalid carried
//     high-QC is stripped (the sync path skips adopting it).
//   - TC: certificate and carried high-QC must verify or the message
//     is dropped.
func (v *verifier) verifyOne(job verifyJob) {
	n := v.n
	quorum := n.cfg.Quorum()
	switch m := job.msg.(type) {
	case types.ProposalMsg:
		b := m.Block
		if b == nil || b.QC == nil {
			// Structurally hopeless; the loop handler drops it.
			v.inject(job.from, m)
			return
		}
		sigs := 1 + len(b.QC.Sigs)
		if err := crypto.VerifyProposalBatch(n.scheme, b, quorum); err != nil {
			n.pipeline.OnVerifyBatch(time.Since(job.enq), sigs, true)
			n.pipeline.OnVerifyRejected()
			return
		}
		// Payload-to-digest binding for full proposals (the signed ID
		// covers only the digest); digest-only proposals are checked
		// during resolution on the loop.
		if len(b.Payload) > 0 && types.DigestPayload(b.Payload) != b.PayloadDigest() {
			n.pipeline.OnVerifyBatch(time.Since(job.enq), sigs, true)
			n.pipeline.OnVerifyRejected()
			return
		}
		fellBack := false
		if m.TC != nil {
			sigs += len(m.TC.Sigs)
			if !v.tcValid(m.TC, quorum) {
				m.TC = nil
				fellBack = true
			}
		}
		n.pipeline.OnVerifyBatch(time.Since(job.enq), sigs, fellBack)
		v.inject(job.from, m)
	case types.TimeoutMsg:
		t := m.Timeout
		if t == nil {
			v.inject(job.from, m)
			return
		}
		if err := n.scheme.Verify(t.Voter, types.TimeoutDigest(t.View), t.Sig); err != nil {
			n.pipeline.OnVerifyBatch(time.Since(job.enq), 1, true)
			n.pipeline.OnVerifyRejected()
			return
		}
		sigs := 1
		fellBack := false
		if t.HighQC != nil && !t.HighQC.IsGenesis() {
			sigs += len(t.HighQC.Sigs)
			if crypto.VerifyQCBatch(n.scheme, t.HighQC, quorum) != nil {
				// Strip the bad certificate but keep the timeout:
				// the signature covers only (view), so the vote
				// toward the TC remains sound.
				stripped := *t
				stripped.HighQC = nil
				m.Timeout = &stripped
				fellBack = true
			}
		}
		n.pipeline.OnVerifyBatch(time.Since(job.enq), sigs, fellBack)
		v.inject(job.from, m)
	case types.TCMsg:
		tc := m.TC
		if tc == nil {
			v.inject(job.from, m)
			return
		}
		sigs := len(tc.Sigs)
		if !v.tcValid(tc, quorum) {
			n.pipeline.OnVerifyBatch(time.Since(job.enq), sigs, true)
			n.pipeline.OnVerifyRejected()
			return
		}
		n.pipeline.OnVerifyBatch(time.Since(job.enq), sigs, false)
		v.inject(job.from, m)
	default:
		v.inject(job.from, job.msg)
	}
}

// tcValid checks a timeout certificate and its carried high-QC.
func (v *verifier) tcValid(tc *types.TC, quorum int) bool {
	if crypto.VerifyTCBatch(v.n.scheme, tc, quorum) != nil {
		return false
	}
	if tc.HighQC != nil && !tc.HighQC.IsGenesis() {
		if crypto.VerifyQCBatch(v.n.scheme, tc.HighQC, quorum) != nil {
			return false
		}
	}
	return true
}

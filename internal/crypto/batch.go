package crypto

import (
	"errors"
	"fmt"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// ErrBatchFailed reports that at least one signature in a batch failed
// verification; the per-item validity slice identifies which.
var ErrBatchFailed = errors.New("crypto: batch verification failed")

// BatchItem is one (signer, digest, signature) triple queued for batch
// verification.
type BatchItem struct {
	Signer types.NodeID
	Digest []byte
	Sig    []byte
}

// BatchScheme is implemented by schemes with a batch equation: one
// check of many signatures, cheaper than checking them one by one,
// that returns nil only when every item is valid. Ed25519 has one;
// HMAC and Noop do not, and their signatures are checked singly.
type BatchScheme interface {
	VerifyBatch(items []BatchItem) error
}

// BatchVerifier accumulates signatures and verifies them together,
// with per-signature fallback when the batch fails so one forged
// signature cannot poison honest items. It is not safe for concurrent
// use; each verification worker owns one.
type BatchVerifier struct {
	s     Scheme
	items []BatchItem
}

// NewBatchVerifier creates a verifier over the scheme.
func NewBatchVerifier(s Scheme) *BatchVerifier {
	return &BatchVerifier{s: s}
}

// Add queues one signature.
func (v *BatchVerifier) Add(signer types.NodeID, digest, sig []byte) {
	v.items = append(v.items, BatchItem{Signer: signer, Digest: digest, Sig: sig})
}

// Len returns the number of queued signatures.
func (v *BatchVerifier) Len() int { return len(v.items) }

// Verify checks every queued signature and resets the batch. ok[i]
// reports item i's validity. err is nil iff all items are valid; on a
// whole-batch failure the verifier falls back to individual
// verification to separate forged signatures from honest ones.
func (v *BatchVerifier) Verify() (ok []bool, err error) {
	items := v.items
	v.items = nil
	ok = make([]bool, len(items))
	if len(items) == 0 {
		return ok, nil
	}
	if bs, can := v.s.(BatchScheme); can {
		if bs.VerifyBatch(items) == nil {
			for i := range ok {
				ok[i] = true
			}
			return ok, nil
		}
		// Fall through: identify the bad items individually.
	}
	allValid := true
	for i := range items {
		if v.s.Verify(items[i].Signer, items[i].Digest, items[i].Sig) == nil {
			ok[i] = true
		} else {
			allValid = false
		}
	}
	if !allValid {
		return ok, ErrBatchFailed
	}
	return ok, nil
}

// VerifyQCBatch checks a quorum certificate using batch verification.
// Structural checks (arity, duplicate signers) match VerifyQC; the
// signature check differs under attack: when the batch fails, valid
// signatures are separated from forged ones, and the certificate is
// accepted as long as the valid distinct signers still reach the
// quorum — a Byzantine aggregator cannot void honest votes by mixing
// in garbage.
func VerifyQCBatch(s Scheme, qc *types.QC, quorum int) error {
	if qc == nil {
		return errors.New("crypto: nil QC")
	}
	if qc.IsGenesis() {
		return nil
	}
	return verifyCertBatch(s, qc.Signers, qc.Sigs, types.SigningDigest(qc.View, qc.BlockID), quorum)
}

// VerifyTCBatch checks a timeout certificate the way VerifyQCBatch
// checks a quorum certificate.
func VerifyTCBatch(s Scheme, tc *types.TC, quorum int) error {
	if tc == nil {
		return errors.New("crypto: nil TC")
	}
	return verifyCertBatch(s, tc.Signers, tc.Sigs, types.TimeoutDigest(tc.View), quorum)
}

// VerifyProposalBatch is VerifyProposal with VerifyQCBatch's rule for
// the certificate: when the joint batch fails, the proposer's signature
// must still verify alone, and the certificate stands if its valid
// distinct signers reach the quorum.
func VerifyProposalBatch(s Scheme, b *types.Block, quorum int) error {
	if _, ok := s.(BatchScheme); ok && VerifyProposal(s, b, quorum) == nil {
		return nil
	}
	if err := s.Verify(b.Proposer, types.SigningDigest(b.View, b.ID()), b.Sig); err != nil {
		return err
	}
	return VerifyQCBatch(s, b.QC, quorum)
}

// verifyCertBatch is the shared tolerant certificate check: structural
// validation, one batch verification over the common digest, and the
// quorum-of-valid fallback.
func verifyCertBatch(s Scheme, signers []types.NodeID, sigs [][]byte, digest []byte, quorum int) error {
	if err := checkCert(signers, sigs, quorum); err != nil {
		return err
	}
	bv := NewBatchVerifier(s)
	for i, id := range signers {
		bv.Add(id, digest, sigs[i])
	}
	ok, err := bv.Verify()
	if err == nil {
		return nil
	}
	valid := 0
	for _, v := range ok {
		if v {
			valid++
		}
	}
	if valid >= quorum {
		return nil
	}
	return fmt.Errorf("%w: %d valid of %d below quorum %d", ErrBatchFailed, valid, len(ok), quorum)
}

// Package crypto provides the signature schemes used to authenticate
// votes, blocks, and timeouts, plus helpers to verify quorum and
// timeout certificates.
//
// Three schemes are available:
//
//   - Ed25519: real asymmetric signatures (the default; the paper uses
//     secp256k1, which is not in the Go standard library — Ed25519 has
//     the same constant-cost sign/verify profile, which is all the
//     performance model observes through its t_CPU parameter).
//   - HMAC: shared-key MACs. Cheap; used by large-scale single-process
//     benchmarks where per-replica asymmetric verification would
//     measure the host CPU rather than the protocols. Not
//     Byzantine-authentic (insiders share the key) — benchmarking only.
//   - Noop: no authentication; isolates pure protocol-logic cost.
//
// All replicas in a run share one scheme, so protocol comparisons stay
// apples-to-apples regardless of the choice.
//
// # Ed25519 verification rule
//
// Signing is crypto/ed25519.Sign, unchanged: the signatures are RFC 8032
// Ed25519. Verification is the cofactored rule of ZIP 215: signature
// (R, S) by public key A over message M is valid when S < L and
//
//	[8](S·B − k·A − R) = O,  where k = SHA-512(R ‖ A ‖ M) mod L,
//
// with A and R decoded leniently (any encoding of a curve point,
// canonical or not). Ed25519.Verify checks one signature;
// Ed25519.VerifyBatch checks many as one random linear combination of
// that equation, a single multi-scalar multiplication. VerifyQC,
// VerifyTC and VerifyProposal use the batch for a whole certificate,
// and for a proposal's signature together with its certificate.
//
// The single and the batch check must agree, because replicas must
// agree on which certificates are valid while one replica may check a
// certificate as a batch and another signature by signature. The
// cofactorless check of crypto/ed25519.Verify disagrees with any batch
// equation on signatures a key holder crafts with a small-order
// component; only a cofactored single check agrees with the batch by
// construction. Honest signatures are valid under both rules.
//
// # Ed25519 verification cost
//
// Both checks run one multi-scalar multiplication,
// edwards25519.VarTimeKeyedMultiScalarMult. Every public key is
// decoded once, when the scheme is built, into an edwards25519.KeyTable:
// the width-8 NAF tables of A and of 2^128·A, 20 KiB per key (1.3 MiB
// at n = 64). The base point B has the same pair, built once per
// process. Each scalar on a fixed base is expanded once, as a width-8
// NAF, and its digits are split at position 128, a = a_lo + 2^128·a_hi:
// a_lo reads A's table and a_hi that of 2^128·A. The batch coefficients
// on the R_i are 128-bit, so the shared doubling chain is 129 steps
// long instead of 253, and no per-call table is built for any key. The
// split is an identity of integers, not a reduction mod L, so every
// verdict is the unsplit equation's, whatever small-order component A
// or R carries.
package crypto

import (
	"errors"
	"fmt"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// Common verification errors.
var (
	ErrUnknownSigner   = errors.New("crypto: unknown signer")
	ErrBadSignature    = errors.New("crypto: signature verification failed")
	ErrMissingKey      = errors.New("crypto: no private key for signer")
	ErrQuorumTooSmall  = errors.New("crypto: certificate below quorum size")
	ErrDuplicateSigner = errors.New("crypto: duplicate signer in certificate")
	ErrArityMismatch   = errors.New("crypto: signer/signature count mismatch")
)

// Scheme signs and verifies digests on behalf of node identities.
// Implementations must be safe for concurrent use.
type Scheme interface {
	// Name identifies the scheme ("ed25519", "hmac", "noop") for
	// configuration and bench reporting.
	Name() string
	// Sign produces signer's signature over digest. It fails if
	// this Scheme instance does not hold signer's private key.
	Sign(signer types.NodeID, digest []byte) ([]byte, error)
	// Verify checks that sig is signer's signature over digest.
	Verify(signer types.NodeID, digest, sig []byte) error
}

// BatchItem is one (signer, digest, signature) triple of a batch
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

// NewScheme constructs the named scheme for n replicas with a
// deterministic seed (keys are derived from the seed so every process
// in a test cluster can derive the same keyring).
func NewScheme(name string, n int, seed int64) (Scheme, error) {
	switch name {
	case "", "ed25519":
		return NewEd25519(n, seed), nil
	case "hmac":
		return NewHMAC(seed), nil
	case "noop":
		return Noop{}, nil
	default:
		return nil, fmt.Errorf("crypto: unknown scheme %q", name)
	}
}

// VerifyQC checks a quorum certificate: at least quorum distinct
// signers, each with a valid signature over the certificate's
// (view, block) digest. Genesis QCs (view 0) are valid by construction.
func VerifyQC(s Scheme, qc *types.QC, quorum int) error {
	if qc == nil {
		return errors.New("crypto: nil QC")
	}
	if qc.IsGenesis() {
		return nil
	}
	return verifyCert(s, nil, qc.Signers, qc.Sigs, types.SigningDigest(qc.View, qc.BlockID), quorum)
}

// VerifyTC checks a timeout certificate the same way VerifyQC checks a
// quorum certificate, over the timeout digest of the TC's view.
func VerifyTC(s Scheme, tc *types.TC, quorum int) error {
	if tc == nil {
		return errors.New("crypto: nil TC")
	}
	return verifyCert(s, nil, tc.Signers, tc.Sigs, types.TimeoutDigest(tc.View), quorum)
}

// VerifyProposal authenticates a block: its proposer's signature over
// the block and its embedded quorum certificate must both be valid.
func VerifyProposal(s Scheme, b *types.Block, quorum int) error {
	lead := BatchItem{Signer: b.Proposer, Digest: types.SigningDigest(b.View, b.ID()), Sig: b.Sig}
	qc := b.QC
	if qc == nil || qc.IsGenesis() {
		if err := s.Verify(lead.Signer, lead.Digest, lead.Sig); err != nil {
			return err
		}
		return VerifyQC(s, qc, quorum)
	}
	return verifyCert(s, &lead, qc.Signers, qc.Sigs, types.SigningDigest(qc.View, qc.BlockID), quorum)
}

// verifyCert checks a certificate strictly — its structure, then every
// signature over digest — together with lead, one more signature that
// must be valid too, or nil. Under a BatchScheme all the signatures are
// one batch; otherwise lead is checked first and the rest in turn.
func verifyCert(s Scheme, lead *BatchItem, signers []types.NodeID, sigs [][]byte, digest []byte, quorum int) error {
	if err := checkCert(signers, sigs, quorum); err != nil {
		return err
	}
	if bs, ok := s.(BatchScheme); ok {
		items := make([]BatchItem, 0, len(signers)+1)
		if lead != nil {
			items = append(items, *lead)
		}
		for i, id := range signers {
			items = append(items, BatchItem{Signer: id, Digest: digest, Sig: sigs[i]})
		}
		return bs.VerifyBatch(items)
	}
	if lead != nil {
		if err := s.Verify(lead.Signer, lead.Digest, lead.Sig); err != nil {
			return err
		}
	}
	for i, id := range signers {
		if err := s.Verify(id, digest, sigs[i]); err != nil {
			return fmt.Errorf("certificate signer %s: %w", id, err)
		}
	}
	return nil
}

// checkCert runs a certificate's structural checks: one signature per
// signer, at least quorum signers, and no signer twice.
func checkCert(signers []types.NodeID, sigs [][]byte, quorum int) error {
	if len(signers) != len(sigs) {
		return ErrArityMismatch
	}
	if len(signers) < quorum {
		return fmt.Errorf("%w: %d < %d", ErrQuorumTooSmall, len(signers), quorum)
	}
	seen := make(map[types.NodeID]struct{}, len(signers))
	for _, id := range signers {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w: %s", ErrDuplicateSigner, id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

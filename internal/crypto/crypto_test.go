package crypto

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/bamboo-bft/bamboo/internal/types"
)

func schemes(t *testing.T) map[string]Scheme {
	t.Helper()
	return map[string]Scheme{
		"ed25519": NewEd25519(4, 1),
		"hmac":    NewHMAC(1),
		"noop":    Noop{},
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	digest := types.SigningDigest(3, types.Hash{7})
	for name, s := range schemes(t) {
		t.Run(name, func(t *testing.T) {
			sig, err := s.Sign(1, digest)
			if err != nil {
				t.Fatalf("sign: %v", err)
			}
			if err := s.Verify(1, digest, sig); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	digest := types.SigningDigest(3, types.Hash{7})
	other := types.SigningDigest(4, types.Hash{7})
	for name, s := range schemes(t) {
		if name == "noop" {
			continue // noop accepts everything by design
		}
		t.Run(name, func(t *testing.T) {
			sig, err := s.Sign(1, digest)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(1, other, sig); err == nil {
				t.Fatal("verification succeeded for wrong digest")
			}
			if err := s.Verify(2, digest, sig); err == nil {
				t.Fatal("verification succeeded for wrong signer")
			}
			mut := append([]byte(nil), sig...)
			mut[0] ^= 0xff
			if err := s.Verify(1, digest, mut); err == nil {
				t.Fatal("verification succeeded for corrupted signature")
			}
		})
	}
}

func TestEd25519Deterministic(t *testing.T) {
	a, b := NewEd25519(4, 42), NewEd25519(4, 42)
	d := types.SigningDigest(1, types.Hash{1})
	sa, _ := a.Sign(2, d)
	if err := b.Verify(2, d, sa); err != nil {
		t.Fatalf("same-seed keyrings disagree: %v", err)
	}
	c := NewEd25519(4, 43)
	if err := c.Verify(2, d, sa); err == nil {
		t.Fatal("different-seed keyring accepted signature")
	}
}

func TestEd25519Restrict(t *testing.T) {
	full := NewEd25519(4, 1)
	r := full.Restrict(2)
	d := types.SigningDigest(1, types.Hash{1})
	if _, err := r.Sign(2, d); err != nil {
		t.Fatalf("restricted scheme cannot sign own id: %v", err)
	}
	if _, err := r.Sign(3, d); !errors.Is(err, ErrMissingKey) {
		t.Fatalf("restricted scheme signed for peer: %v", err)
	}
	sig, _ := full.Sign(3, d)
	if err := r.Verify(3, d, sig); err != nil {
		t.Fatalf("restricted scheme cannot verify peer: %v", err)
	}
}

func TestEd25519UnknownSigner(t *testing.T) {
	s := NewEd25519(4, 1)
	d := types.SigningDigest(1, types.Hash{1})
	if _, err := s.Sign(99, d); !errors.Is(err, ErrMissingKey) {
		t.Fatalf("want ErrMissingKey, got %v", err)
	}
	if err := s.Verify(99, d, []byte{1}); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("want ErrUnknownSigner, got %v", err)
	}
}

func TestNewSchemeFactory(t *testing.T) {
	for _, name := range []string{"", "ed25519", "hmac", "noop"} {
		if _, err := NewScheme(name, 4, 1); err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
	}
	if _, err := NewScheme("rsa", 4, 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func buildQC(t testing.TB, s Scheme, view types.View, block types.Hash, signers []types.NodeID) *types.QC {
	t.Helper()
	qc := &types.QC{View: view, BlockID: block}
	digest := types.SigningDigest(view, block)
	for _, id := range signers {
		sig, err := s.Sign(id, digest)
		if err != nil {
			t.Fatal(err)
		}
		qc.Signers = append(qc.Signers, id)
		qc.Sigs = append(qc.Sigs, sig)
	}
	return qc
}

func TestVerifyQC(t *testing.T) {
	s := NewEd25519(4, 1)
	qc := buildQC(t, s, 5, types.Hash{5}, []types.NodeID{1, 2, 3})
	if err := VerifyQC(s, qc, 3); err != nil {
		t.Fatalf("valid QC rejected: %v", err)
	}
	if err := VerifyQC(s, qc, 4); !errors.Is(err, ErrQuorumTooSmall) {
		t.Fatalf("undersized QC accepted: %v", err)
	}

	dup := buildQC(t, s, 5, types.Hash{5}, []types.NodeID{1, 2, 2})
	if err := VerifyQC(s, dup, 3); !errors.Is(err, ErrDuplicateSigner) {
		t.Fatalf("duplicate signers accepted: %v", err)
	}

	bad := buildQC(t, s, 5, types.Hash{5}, []types.NodeID{1, 2, 3})
	bad.Sigs[1][0] ^= 0xff
	if err := VerifyQC(s, bad, 3); err == nil {
		t.Fatal("corrupted QC accepted")
	}

	mismatch := buildQC(t, s, 5, types.Hash{5}, []types.NodeID{1, 2, 3})
	mismatch.Sigs = mismatch.Sigs[:2]
	if err := VerifyQC(s, mismatch, 3); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("arity mismatch accepted: %v", err)
	}

	if err := VerifyQC(s, types.GenesisQC(), 3); err != nil {
		t.Fatalf("genesis QC rejected: %v", err)
	}
	if err := VerifyQC(s, nil, 3); err == nil {
		t.Fatal("nil QC accepted")
	}
}

// TestQCBatchByzantineSignature is the adversarial case: a Byzantine
// voter smuggles a garbage signature into an otherwise valid quorum
// certificate. The certificate is checked as one batch equation under
// the strict rule, so the garbage signature voids it even though the
// honest signers alone still reach the quorum — there is no
// quorum-of-valid fallback whose verdict could differ between
// replicas. The same holds when the certificate rides in a proposal
// and is batched with the proposer's signature.
func TestQCBatchByzantineSignature(t *testing.T) {
	const n, quorum = 7, 5
	s := NewEd25519(n, 1)
	blockID := types.Hash{0xab}
	qc := buildQC(t, s, 3, blockID, []types.NodeID{1, 2, 3, 4, 5, 6})
	// propose signs a view-4 block extending blockID as its leader.
	propose := func() *types.Block {
		b := &types.Block{View: 4, Proposer: 4, Parent: blockID, QC: qc}
		sig, err := s.Sign(b.Proposer, types.SigningDigest(b.View, b.ID()))
		if err != nil {
			t.Fatal(err)
		}
		b.Sig = sig
		return b
	}
	if err := VerifyQC(s, qc, quorum); err != nil {
		t.Fatalf("valid QC rejected: %v", err)
	}
	if err := VerifyProposal(s, propose(), quorum); err != nil {
		t.Fatalf("valid proposal rejected: %v", err)
	}
	// Voter 2 is Byzantine: its signature is garbage, but five honest
	// signatures remain.
	qc.Sigs[1] = []byte("byzantine garbage")
	if err := VerifyQC(s, qc, quorum); err == nil {
		t.Fatal("QC with a garbage signature accepted on its valid quorum")
	}
	if err := VerifyProposal(s, propose(), quorum); err == nil {
		t.Fatal("proposal carrying a QC with a garbage signature accepted")
	}
	// Strip one more honest vote: below quorum of valid signatures.
	qc.Sigs[2] = []byte("more garbage")
	if err := VerifyQC(s, qc, quorum); err == nil {
		t.Fatal("QC below quorum of valid signatures accepted")
	}
}

func TestVerifyTC(t *testing.T) {
	s := NewEd25519(4, 1)
	tc := &types.TC{View: 9}
	digest := types.TimeoutDigest(9)
	for _, id := range []types.NodeID{1, 2, 3} {
		sig, err := s.Sign(id, digest)
		if err != nil {
			t.Fatal(err)
		}
		tc.Signers = append(tc.Signers, id)
		tc.Sigs = append(tc.Sigs, sig)
	}
	if err := VerifyTC(s, tc, 3); err != nil {
		t.Fatalf("valid TC rejected: %v", err)
	}
	if err := VerifyTC(s, tc, 4); !errors.Is(err, ErrQuorumTooSmall) {
		t.Fatalf("undersized TC accepted: %v", err)
	}
	tc.Sigs[0][0] ^= 0xff
	if err := VerifyTC(s, tc, 3); err == nil {
		t.Fatal("corrupted TC accepted")
	}
	if err := VerifyTC(s, nil, 3); err == nil {
		t.Fatal("nil TC accepted")
	}
}

// Property: for the HMAC scheme, a tag never verifies under a
// different signer or digest.
func TestHMACNoCrossAttributionQuick(t *testing.T) {
	s := NewHMAC(7)
	f := func(a, b uint32, d1, d2 [8]byte) bool {
		sig, err := s.Sign(types.NodeID(a), d1[:])
		if err != nil {
			return false
		}
		if a != b {
			if s.Verify(types.NodeID(b), d1[:], sig) == nil {
				return false
			}
		}
		if d1 != d2 {
			if s.Verify(types.NodeID(a), d2[:], sig) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSign(b *testing.B) {
	digest := types.SigningDigest(3, types.Hash{7})
	for name, s := range map[string]Scheme{
		"ed25519": NewEd25519(4, 1), "hmac": NewHMAC(1), "noop": Noop{},
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Sign(1, digest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	digest := types.SigningDigest(3, types.Hash{7})
	for name, s := range map[string]Scheme{
		"ed25519": NewEd25519(4, 1), "hmac": NewHMAC(1), "noop": Noop{},
	} {
		sig, err := s.Sign(1, digest)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.Verify(1, digest, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package core

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/protocol/hotstuff"
	"github.com/bamboo-bft/bamboo/internal/safety"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// authScheme returns the named scheme for syncTestCfg's cluster.
func authScheme(t *testing.T, name string) crypto.Scheme {
	t.Helper()
	cfg := syncTestCfg()
	s, err := crypto.NewScheme(name, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// authNode is an un-started replica 4 of syncTestCfg's 4-node cluster
// under scheme s, driven by direct handler calls; replicas 1–3 exist
// only as switch endpoints that absorb what it sends.
func authNode(t *testing.T, s crypto.Scheme) *Node {
	t.Helper()
	cfg := syncTestCfg()
	cfg.CryptoScheme = s.Name()
	sw := network.NewSwitch(nil)
	t.Cleanup(sw.Close)
	var self *network.Endpoint
	for i := 1; i <= cfg.N; i++ {
		ep, err := sw.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		self = ep
	}
	return NewNode(types.NodeID(cfg.N), cfg, hotstuff.New, self, s, Options{})
}

// deliverProposal hands m to n the way a verification mode does: sync
// runs onProposal's own checks; async runs the verification pool's
// check and passes whatever it re-injects to the loop's handler.
func deliverProposal(n *Node, async bool, m types.ProposalMsg) {
	from := m.Block.Proposer
	if !async {
		n.onProposal(from, m, false)
		return
	}
	(&verifier{n: n}).verifyOne(verifyJob{from: from, msg: m, enq: time.Now()})
	for {
		select {
		case ev := <-n.events:
			n.dispatch(n.id, ev)
		default:
			return
		}
	}
}

// signedBlock is proposer's signed, empty block at view on qc.
func signedBlock(t *testing.T, s crypto.Scheme, proposer types.NodeID, view types.View, qc *types.QC) *types.Block {
	t.Helper()
	b := safety.BuildBlock(proposer, view, qc, nil)
	sig, err := s.Sign(proposer, types.SigningDigest(view, b.ID()))
	if err != nil {
		t.Fatal(err)
	}
	b.Sig = sig
	return b
}

// signQC certifies b with the votes of signers.
func signQC(t *testing.T, s crypto.Scheme, b *types.Block, signers ...types.NodeID) *types.QC {
	t.Helper()
	qc := &types.QC{View: b.View, BlockID: b.ID()}
	for _, id := range signers {
		sig, err := s.Sign(id, types.SigningDigest(b.View, b.ID()))
		if err != nil {
			t.Fatal(err)
		}
		qc.Signers = append(qc.Signers, id)
		qc.Sigs = append(qc.Sigs, sig)
	}
	return qc
}

func flipped(sig []byte) []byte {
	out := append([]byte(nil), sig...)
	out[0] ^= 0x01
	return out
}

// TestProposalAuthentication: a proposal attaches only when its
// proposer leads its view, its signature verifies and its QC holds a
// quorum of distinct valid signers — under both schemes, and whether
// onProposal checks it or the verification pool does (for Ed25519,
// both check signature and QC as one batch equation).
func TestProposalAuthentication(t *testing.T) {
	// Each case builds view 2's proposal on the certified view-1 block;
	// round robin makes replica 2 view 2's leader, and a quorum is 3.
	cases := []struct {
		name   string
		accept bool
		build  func(t *testing.T, s crypto.Scheme, b1 *types.Block) *types.Block
	}{
		{"honest", true, func(t *testing.T, s crypto.Scheme, b1 *types.Block) *types.Block {
			return signedBlock(t, s, 2, 2, signQC(t, s, b1, 1, 2, 3))
		}},
		{"forged proposer signature", false, func(t *testing.T, s crypto.Scheme, b1 *types.Block) *types.Block {
			b := signedBlock(t, s, 2, 2, signQC(t, s, b1, 1, 2, 3))
			b.Sig = flipped(b.Sig)
			return b
		}},
		{"forged QC signature", false, func(t *testing.T, s crypto.Scheme, b1 *types.Block) *types.Block {
			qc := signQC(t, s, b1, 1, 2, 3)
			qc.Sigs[1] = flipped(qc.Sigs[1])
			return signedBlock(t, s, 2, 2, qc)
		}},
		{"sub-quorum QC", false, func(t *testing.T, s crypto.Scheme, b1 *types.Block) *types.Block {
			return signedBlock(t, s, 2, 2, signQC(t, s, b1, 1, 2))
		}},
		{"duplicate-signer QC", false, func(t *testing.T, s crypto.Scheme, b1 *types.Block) *types.Block {
			return signedBlock(t, s, 2, 2, signQC(t, s, b1, 1, 2, 2))
		}},
		{"wrong leader", false, func(t *testing.T, s crypto.Scheme, b1 *types.Block) *types.Block {
			return signedBlock(t, s, 3, 2, signQC(t, s, b1, 1, 2, 3))
		}},
	}
	for _, scheme := range []string{"hmac", "ed25519"} {
		s := authScheme(t, scheme)
		for _, mode := range []string{"sync", "async"} {
			for _, tc := range cases {
				t.Run(scheme+"/"+mode+"/"+tc.name, func(t *testing.T) {
					n := authNode(t, s)
					b1 := signedBlock(t, s, 1, 1, types.GenesisQC())
					n.onProposal(1, types.ProposalMsg{Block: b1}, true)
					if !n.forest.Contains(b1.ID()) {
						t.Fatal("view-1 block not attached")
					}
					b := tc.build(t, s, b1)
					deliverProposal(n, mode == "async", types.ProposalMsg{Block: b})
					if got := n.forest.Contains(b.ID()); got != tc.accept {
						t.Fatalf("attached = %v, want %v", got, tc.accept)
					}
				})
			}
		}
	}
}

// TestTorsionQCOneVerdict: a QC carrying a Byzantine signer's torsion
// signature — valid under the cofactored rule, invalid under
// crypto/ed25519.Verify — gets one verdict, acceptance, from every path
// that checks a certificate: onProposal (sync and pool), VerifyQC,
// VerifyQCBatch and a timeout's HighQC.
func TestTorsionQCOneVerdict(t *testing.T) {
	s := authScheme(t, "ed25519")
	b1 := signedBlock(t, s, 1, 1, types.GenesisQC())
	qc := signQC(t, s, b1, 1, 2, 3)
	torsion, err := s.(*crypto.Ed25519).SignTorsion(1, types.SigningDigest(b1.View, b1.ID()))
	if err != nil {
		t.Fatal(err)
	}
	qc.Sigs[0] = torsion
	cfg := syncTestCfg()
	quorum := cfg.Quorum()

	if err := crypto.VerifyQC(s, qc, quorum); err != nil {
		t.Errorf("VerifyQC: %v", err)
	}
	if err := crypto.VerifyQCBatch(s, qc, quorum); err != nil {
		t.Errorf("VerifyQCBatch: %v", err)
	}
	for _, mode := range []string{"sync", "async"} {
		n := authNode(t, s)
		n.onProposal(1, types.ProposalMsg{Block: b1}, true)
		b2 := signedBlock(t, s, 2, 2, qc)
		deliverProposal(n, mode == "async", types.ProposalMsg{Block: b2})
		if !n.forest.Contains(b2.ID()) {
			t.Errorf("%s onProposal rejected the proposal", mode)
		}
	}
	n := authNode(t, s)
	n.onProposal(1, types.ProposalMsg{Block: b1}, true)
	sig, err := s.Sign(2, types.TimeoutDigest(3))
	if err != nil {
		t.Fatal(err)
	}
	n.onTimeoutMsg(&types.Timeout{View: 3, Voter: 2, HighQC: qc, Sig: sig}, false)
	if got := n.rules.HighQC(); got == nil || got.BlockID != b1.ID() {
		t.Error("the timeout's HighQC was not adopted")
	}
}

package core

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
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
// under scheme s (see handlerNode).
func authNode(t *testing.T, s crypto.Scheme) *Node {
	t.Helper()
	cfg := syncTestCfg()
	return handlerNode(t, cfg, s, types.NodeID(cfg.N))
}

// handlerNode is an un-started replica self of cfg's cluster under
// scheme s, driven by direct handler calls; the other replicas exist
// only as switch endpoints that absorb what it sends.
func handlerNode(t *testing.T, cfg config.Config, s crypto.Scheme, self types.NodeID) *Node {
	t.Helper()
	cfg.CryptoScheme = s.Name()
	sw := network.NewSwitch(nil)
	t.Cleanup(sw.Close)
	var ep *network.Endpoint
	for i := 1; i <= cfg.N; i++ {
		e, err := sw.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if types.NodeID(i) == self {
			ep = e
		}
	}
	return NewNode(self, cfg, hotstuff.New, ep, s, Options{})
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
// quorum of distinct valid signers — under both schemes (for Ed25519,
// onProposal checks signature and QC as one batch equation).
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
		for _, tc := range cases {
			t.Run(scheme+"/"+tc.name, func(t *testing.T) {
				n := authNode(t, s)
				b1 := signedBlock(t, s, 1, 1, types.GenesisQC())
				n.onProposal(1, types.ProposalMsg{Block: b1}, true)
				if !n.forest.Contains(b1.ID()) {
					t.Fatal("view-1 block not attached")
				}
				b := tc.build(t, s, b1)
				n.onProposal(b.Proposer, types.ProposalMsg{Block: b}, false)
				if got := n.forest.Contains(b.ID()); got != tc.accept {
					t.Fatalf("attached = %v, want %v", got, tc.accept)
				}
			})
		}
	}
}

// TestTorsionQCOneVerdict: a QC carrying a Byzantine signer's torsion
// signature — valid under the cofactored rule, invalid under
// crypto/ed25519.Verify — gets one verdict, acceptance, from every path
// that checks a certificate: onProposal, VerifyQC and a timeout's
// HighQC.
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
	n := authNode(t, s)
	n.onProposal(1, types.ProposalMsg{Block: b1}, true)
	b2 := signedBlock(t, s, 2, 2, qc)
	n.onProposal(2, types.ProposalMsg{Block: b2}, false)
	if !n.forest.Contains(b2.ID()) {
		t.Error("onProposal rejected the proposal")
	}
	n = authNode(t, s)
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

// TestTamperedPayloadDigestRejected: the signed block ID covers the
// payload only through its digest, so a proposal must carry exactly
// the payload that digest commits to — otherwise a Byzantine proposer
// could get one block ID committed with divergent payloads on
// different replicas. Rejected inputs: an inline payload that does not
// hash to the carried digest, a stripped header (the full block's ID
// with no payload), and a stripped header in digest form with its
// transaction IDs listed. Runs against a single isolated replica: with
// no quorum the view is pinned and nothing commits, so the forest
// neither prunes forks nor compacts — attachment is directly and
// stably observable through the fetch path.
func TestTamperedPayloadDigestRejected(t *testing.T) {
	// Proposals are verified synchronously on the event loop, the one
	// verification mode the replica has.
	t.Run("sync", func(t *testing.T) {
		cfg := testCfg()
		sw := network.NewSwitch(nil)
		t.Cleanup(sw.Close)
		// Only replica 4 runs; peers 1-3 exist solely as signing
		// identities (HMAC's shared key stands in for a Byzantine
		// proposer forging their votes).
		ep, err := sw.Join(4)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(4, cfg, hotstuff.New, ep, scheme, Options{})
		node.Start()
		t.Cleanup(node.Stop)
		raw, err := sw.JoinClient(888)
		if err != nil {
			t.Fatal(err)
		}

		tx := func(seq uint64, cmd string) []types.Transaction {
			return []types.Transaction{{ID: types.TxID{Client: 50, Seq: seq}, Command: []byte(cmd)}}
		}
		mk := func(p []types.Transaction, digest types.Hash) *types.Block {
			// View 1's leader is replica 1 under round robin.
			b := &types.Block{
				View:     1,
				Proposer: 1,
				Parent:   types.Genesis().ID(),
				QC:       types.GenesisQC(),
				Payload:  p,
				Digest:   digest,
			}
			sig, err := scheme.Sign(1, types.SigningDigest(b.View, b.ID()))
			if err != nil {
				t.Fatal(err)
			}
			b.Sig = sig
			return b
		}
		// Each rejected input names a distinct block ID, none of which is
		// ever sent in full.
		forms := tx(4, "digest form")
		rejected := map[string]types.ProposalMsg{
			"tampered digest": {Block: mk(tx(1, "real"), types.DigestPayload(tx(2, "fake")))},
			"stripped":        {Block: mk(tx(3, "stripped"), types.Hash{}).StripPayload()},
			"digest form": {
				Block:      mk(forms, types.Hash{}).StripPayload(),
				PayloadIDs: []types.TxID{forms[0].ID},
			},
		}
		honest := mk(tx(5, "honest"), types.Hash{})
		for _, m := range rejected {
			raw.Send(4, m)
		}
		raw.Send(4, types.ProposalMsg{Block: honest})

		// Observe through the fetch path: an attached block is servable; a
		// rejected one is not.
		fetchable := func(id types.Hash, wait time.Duration) bool {
			deadline := time.After(wait)
			raw.Send(4, types.FetchMsg{BlockID: id})
			for {
				select {
				case env := <-raw.Inbox():
					if pm, ok := env.Msg.(types.ProposalMsg); ok && pm.Block != nil && pm.Block.ID() == id {
						return true
					}
				case <-deadline:
					return false
				}
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for !fetchable(honest.ID(), 100*time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("control block with a consistent digest was not attached")
			}
		}
		for name, m := range rejected {
			if fetchable(m.Block.ID(), 300*time.Millisecond) {
				t.Errorf("%s proposal was attached", name)
			}
		}
	})
}

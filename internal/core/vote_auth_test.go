package core

import (
	"fmt"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestForgedVoteNeverCounts: view 2's leader in a 7-node cluster (q = 5)
// collects view 1's votes through onVote, one of them forged by replica
// 7 — its own signature flipped, or replica 1's signature passed off as
// its own — at every position in the stream. With q−1 honest votes, its
// own included, no QC forms; with q, the QC formed excludes the forger
// and passes VerifyQC.
func TestForgedVoteNeverCounts(t *testing.T) {
	const n, leader, forger = 7, types.NodeID(2), types.NodeID(7)
	cfg := syncTestCfg()
	cfg.N = n
	quorum := cfg.Quorum()
	for _, scheme := range []string{"hmac", "ed25519"} {
		s, err := crypto.NewScheme(scheme, n, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		b1 := signedBlock(t, s, 1, 1, types.GenesisQC())
		digest := types.SigningDigest(b1.View, b1.ID())
		sign := func(id types.NodeID) []byte {
			sig, err := s.Sign(id, digest)
			if err != nil {
				t.Fatal(err)
			}
			return sig
		}
		forgeries := map[string][]byte{
			"flipped":       flipped(sign(forger)),
			"another voter": sign(1),
		}
		// The leader's own vote is cast when b1 attaches; the others
		// arrive from replicas 1, 3, 4, 5, in that order.
		others := []types.NodeID{1, 3, 4, 5}
		var votes []*types.Vote
		for _, id := range others {
			votes = append(votes, &types.Vote{View: 1, BlockID: b1.ID(), Voter: id, Sig: sign(id)})
		}
		for name, forged := range forgeries {
			for honest := quorum - 1; honest <= quorum; honest++ {
				for pos := 0; pos < honest; pos++ {
					t.Run(fmt.Sprintf("%s/%s/honest=%d/at=%d", scheme, name, honest, pos), func(t *testing.T) {
						node := handlerNode(t, cfg, s, leader)
						node.onProposal(1, types.ProposalMsg{Block: b1}, true)
						bad := &types.Vote{View: 1, BlockID: b1.ID(), Voter: forger, Sig: forged}
						stream := append(append(append([]*types.Vote(nil), votes[:pos]...), bad), votes[pos:honest-1]...)
						for _, v := range stream {
							node.onVote(v, false)
						}
						qc := node.rules.HighQC()
						formed := qc != nil && qc.BlockID == b1.ID()
						if honest < quorum {
							if formed {
								t.Fatalf("QC formed from %d honest votes and a forged one", honest)
							}
							return
						}
						if !formed {
							t.Fatalf("no QC from %d honest votes", honest)
						}
						for _, id := range qc.Signers {
							if id == forger {
								t.Fatal("the QC counts the forger")
							}
						}
						if err := crypto.VerifyQC(s, qc, quorum); err != nil {
							t.Fatalf("VerifyQC: %v", err)
						}
					})
				}
			}
		}
	}
}

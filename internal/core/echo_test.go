package core

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/protocol/streamlet"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// countingScheme counts signature checks.
type countingScheme struct {
	crypto.Scheme
	verifies int
}

func (s *countingScheme) Verify(signer types.NodeID, digest, sig []byte) error {
	s.verifies++
	return s.Scheme.Verify(signer, digest, sig)
}

// TestEchoDedupUsesTheExactVote: under Streamlet's echoes, replica 1
// validly signs a vote for a block ID crafted so that (view, voter,
// block) folded into four bytes — the old dedup key — equals replica
// 2's honest vote. The crafted vote arrives first. The honest vote is
// still checked, counted and echoed; a second copy of it is neither
// checked nor echoed again.
func TestEchoDedupUsesTheExactVote(t *testing.T) {
	cfg := syncTestCfg()
	cfg.Protocol = config.ProtocolStreamlet
	cfg.ApplyProtocolDefaults()
	inner, err := crypto.NewScheme("hmac", cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CryptoScheme = inner.Name()
	s := &countingScheme{Scheme: inner}
	self := types.NodeID(cfg.N)
	sw := network.NewSwitch(nil)
	t.Cleanup(sw.Close)
	var ep, peer *network.Endpoint
	for i := 1; i <= cfg.N; i++ {
		e, err := sw.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		switch types.NodeID(i) {
		case self:
			ep = e
		case 3:
			peer = e
		}
	}
	node := NewNode(self, cfg, streamlet.New, ep, s, Options{})
	if !node.policy.EchoMessages {
		t.Fatal("Streamlet does not echo")
	}

	vote := func(voter types.NodeID, id types.Hash) *types.Vote {
		sig, err := inner.Sign(voter, types.SigningDigest(1, id))
		if err != nil {
			t.Fatal(err)
		}
		return &types.Vote{View: 1, BlockID: id, Voter: voter, Sig: sig}
	}
	var honestID types.Hash
	for i := range honestID {
		honestID[i] = byte(i + 1)
	}
	// XOR-ing voter 1 instead of 2 into byte 2 leaves the folded key
	// unchanged when byte 2 of the block ID differs by 1^2.
	craftedID := honestID
	craftedID[2] ^= 1 ^ 2
	honest := vote(2, honestID)

	node.onVote(vote(1, craftedID), false)
	node.onVote(honest, false)
	if got := node.votes.Count(1, honestID); got != 1 {
		t.Fatalf("honest vote counted %d times after the colliding vote, want 1", got)
	}
	if s.verifies != 2 {
		t.Fatalf("%d signature checks for two distinct votes, want 2", s.verifies)
	}
	node.onVote(honest, false)
	if s.verifies != 2 {
		t.Fatalf("a repeated vote was checked again (%d checks)", s.verifies)
	}

	echoed := map[types.NodeID]int{}
	deadline := time.After(time.Second)
	for len(echoed) < 2 {
		select {
		case env := <-peer.Inbox():
			if m, ok := env.Msg.(types.VoteMsg); ok {
				echoed[m.Vote.Voter]++
			}
		case <-deadline:
			t.Fatalf("echoes by voter %v, want voters 1 and 2", echoed)
		}
	}
	select {
	case env := <-peer.Inbox():
		t.Fatalf("extra echo %+v", env.Msg)
	case <-time.After(50 * time.Millisecond):
	}
	if echoed[1] != 1 || echoed[2] != 1 {
		t.Fatalf("echoes by voter %v, want one each from 1 and 2", echoed)
	}
}

package codec

import (
	"bytes"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestDigestProposalRoundTrip: a proposal carrying a stripped header
// survives the wire — digest intact, block ID recomputed on the
// receiving side equal to the sender's, no payload smuggled along, and
// the decoded block still recognisable as a stripped header.
func TestDigestProposalRoundTrip(t *testing.T) {
	payload := []types.Transaction{
		{ID: types.TxID{Client: 3, Seq: 9}, Command: []byte("cmd"), SubmitUnixNano: 42},
	}
	full := &types.Block{
		View:     7,
		Proposer: 2,
		Parent:   types.Hash{0x0a},
		QC: &types.QC{View: 6, BlockID: types.Hash{0x0a},
			Signers: []types.NodeID{1, 2, 3}, Sigs: [][]byte{{1}, {2}, {3}}},
		Payload: payload,
		Sig:     []byte("proposer-sig"),
	}
	wantID := full.ID()
	msg := types.ProposalMsg{Block: full.StripPayload()}

	var buf bytes.Buffer
	encodeFrame(t, &buf, Envelope{From: 2, Msg: msg})
	env, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Msg.(types.ProposalMsg)
	if !ok {
		t.Fatalf("decoded %T", env.Msg)
	}
	if got.Block.ID() != wantID {
		t.Fatalf("block ID drifted: %s vs %s", got.Block.ID(), wantID)
	}
	if len(got.Block.Payload) != 0 {
		t.Fatal("payload smuggled in a digest proposal")
	}
	if got.Block.CarriesPayload() {
		t.Fatal("decoded stripped header passes as a full block")
	}
}

package codec

import (
	"bytes"
	"io"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestDigestProposalRoundTrip: a digest-form proposal (the reserved
// wire form the engine never sends) survives the wire — payload IDs
// and digest intact, block ID recomputed on the receiving side equal
// to the sender's, no payload smuggled along, and the decoded block
// still recognisable as a stripped header.
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
	msg := types.ProposalMsg{
		Block:      full.StripPayload(),
		PayloadIDs: []types.TxID{payload[0].ID},
	}

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
	if len(got.PayloadIDs) != 1 || got.PayloadIDs[0] != payload[0].ID {
		t.Fatalf("payload IDs corrupted: %v", got.PayloadIDs)
	}
	if got.Block.CarriesPayload() {
		t.Fatal("decoded stripped header passes as a full block")
	}
}

// TestPayloadBatchRoundTrip: the payload batch message carries
// transactions byte-identically.
func TestPayloadBatchRoundTrip(t *testing.T) {
	msg := types.PayloadBatchMsg{Txs: []types.Transaction{
		{ID: types.TxID{Client: 1, Seq: 1}, Command: []byte("a"), SubmitUnixNano: 7},
		{ID: types.TxID{Client: 1, Seq: 2}, Command: []byte("bb")},
	}}
	var buf bytes.Buffer
	encodeFrame(t, &buf, Envelope{From: 1, Msg: msg})
	env, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Msg.(types.PayloadBatchMsg)
	if !ok {
		t.Fatalf("decoded %T", env.Msg)
	}
	if len(got.Txs) != 2 || !bytes.Equal(got.Txs[1].Command, []byte("bb")) ||
		got.Txs[0].SubmitUnixNano != 7 {
		t.Fatalf("batch corrupted: %+v", got.Txs)
	}
	if _, err := NewDecoder(&buf).Decode(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

package types

import (
	"bytes"
	"testing"
)

func digestPayloadFixture() []Transaction {
	return []Transaction{
		{ID: TxID{Client: 1, Seq: 1}, Command: []byte("set a 1")},
		{ID: TxID{Client: 2, Seq: 7}, Command: []byte("set b 2")},
	}
}

func TestDigestPayloadSensitivity(t *testing.T) {
	base := DigestPayload(digestPayloadFixture())
	if base.IsZero() {
		t.Fatal("digest of non-empty payload is zero")
	}
	reordered := digestPayloadFixture()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if DigestPayload(reordered) == base {
		t.Fatal("digest ignores order")
	}
	tampered := digestPayloadFixture()
	tampered[1].Command = []byte("set b 3")
	if DigestPayload(tampered) == base {
		t.Fatal("digest ignores command bytes")
	}
	renamed := digestPayloadFixture()
	renamed[1].ID.Seq = 8
	if DigestPayload(renamed) == base {
		t.Fatal("digest ignores transaction IDs")
	}
}

// TestStripPayloadKeepsIdentity: a stripped header keeps the full
// block's ID, digest and signature, so a snapshot anchored to it names
// the committed block — and only the full block carries its payload.
func TestStripPayloadKeepsIdentity(t *testing.T) {
	payload := digestPayloadFixture()
	full := &Block{
		View:     4,
		Proposer: 2,
		Parent:   Hash{0x11},
		QC:       &QC{View: 3, BlockID: Hash{0x11}},
		Payload:  payload,
		Sig:      []byte("sig"),
	}
	id := full.ID()

	stripped := full.StripPayload()
	if len(stripped.Payload) != 0 {
		t.Fatal("stripped block kept its payload")
	}
	if stripped.ID() != id {
		t.Fatal("stripped ID differs from full ID")
	}
	if stripped.PayloadDigest() != DigestPayload(payload) {
		t.Fatal("stripped digest wrong")
	}
	if !bytes.Equal(stripped.Sig, full.Sig) {
		t.Fatal("signature not carried")
	}
	if !full.CarriesPayload() || stripped.CarriesPayload() {
		t.Fatalf("CarriesPayload: full %v, stripped %v; want true, false",
			full.CarriesPayload(), stripped.CarriesPayload())
	}
}

// TestBlockIDDistinguishesDigests: two blocks identical except for
// their payloads (hence digests) must have different IDs; two blocks
// with equal digests but one carrying the payload inline must match.
func TestBlockIDDistinguishesDigests(t *testing.T) {
	qc := &QC{View: 1, BlockID: Hash{0x22}}
	a := &Block{View: 2, Proposer: 1, Parent: Hash{0x22}, QC: qc,
		Payload: []Transaction{{ID: TxID{Client: 1, Seq: 1}}}}
	b := &Block{View: 2, Proposer: 1, Parent: Hash{0x22}, QC: qc,
		Payload: []Transaction{{ID: TxID{Client: 1, Seq: 2}}}}
	if a.ID() == b.ID() {
		t.Fatal("different payloads, same block ID")
	}
	empty := &Block{View: 2, Proposer: 1, Parent: Hash{0x22}, QC: qc}
	if empty.ID() == a.ID() {
		t.Fatal("empty payload collides with non-empty")
	}
}

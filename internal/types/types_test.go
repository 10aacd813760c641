package types

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestBlockIDDeterministic(t *testing.T) {
	mk := func() *Block {
		return &Block{
			View:     7,
			Proposer: 3,
			Parent:   Hash{1, 2, 3},
			QC:       &QC{View: 6, BlockID: Hash{1, 2, 3}},
			Payload: []Transaction{
				{ID: TxID{Client: 1, Seq: 9}, Command: []byte("set x 1")},
			},
		}
	}
	a, b := mk(), mk()
	if a.ID() != b.ID() {
		t.Fatalf("identical blocks hash differently: %s vs %s", a.ID(), b.ID())
	}
}

func TestBlockIDSensitivity(t *testing.T) {
	// Build a fresh block per variant: the hash cache is fixed at
	// first use (and guarded by a sync.Once, so blocks cannot be
	// copied by value).
	id := func(mut func(*Block)) Hash {
		b := &Block{
			View:     7,
			Proposer: 3,
			Parent:   Hash{1},
			QC:       &QC{View: 6, BlockID: Hash{1}},
			Payload:  []Transaction{{ID: TxID{Client: 1, Seq: 1}, Command: []byte("a")}},
		}
		mut(b)
		return b.ID()
	}
	orig := id(func(*Block) {})
	cases := map[string]func(*Block){
		"view":     func(b *Block) { b.View = 8 },
		"proposer": func(b *Block) { b.Proposer = 4 },
		"parent":   func(b *Block) { b.Parent = Hash{2} },
		"qc view":  func(b *Block) { b.QC = &QC{View: 5, BlockID: Hash{1}} },
		"payload": func(b *Block) {
			b.Payload = []Transaction{{ID: TxID{Client: 1, Seq: 2}, Command: []byte("a")}}
		},
		"command": func(b *Block) {
			b.Payload = []Transaction{{ID: TxID{Client: 1, Seq: 1}, Command: []byte("b")}}
		},
	}
	for name, mut := range cases {
		if id(mut) == orig {
			t.Errorf("mutating %s did not change block ID", name)
		}
	}
}

func TestBlockIDCached(t *testing.T) {
	b := &Block{View: 1, Proposer: 1}
	first := b.ID()
	// Mutating after hashing must not change the cached ID: the ID is
	// fixed at first computation (proposers hash before signing).
	b.View = 99
	if b.ID() != first {
		t.Fatal("block ID not cached")
	}
}

func TestQCClone(t *testing.T) {
	qc := &QC{
		View:    3,
		BlockID: Hash{9},
		Signers: []NodeID{1, 2, 3},
		Sigs:    [][]byte{{1}, {2}, {3}},
	}
	cp := qc.Clone()
	cp.Signers[0] = 42
	cp.Sigs[0][0] = 42
	if qc.Signers[0] != 1 || qc.Sigs[0][0] != 1 {
		t.Fatal("Clone shares memory with original")
	}
	if (*QC)(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestSigningDigestDistinct(t *testing.T) {
	d1 := SigningDigest(1, Hash{1})
	d2 := SigningDigest(2, Hash{1})
	d3 := SigningDigest(1, Hash{2})
	if bytes.Equal(d1, d2) || bytes.Equal(d1, d3) {
		t.Fatal("signing digests collide across view/block")
	}
	if bytes.Equal(TimeoutDigest(1), SigningDigest(1, ZeroHash)) {
		t.Fatal("timeout digest must differ from vote digest domain")
	}
}

func TestGenesisStable(t *testing.T) {
	if Genesis().ID() != Genesis().ID() {
		t.Fatal("genesis hash unstable")
	}
	qc := GenesisQC()
	if !qc.IsGenesis() {
		t.Fatal("genesis QC not recognized")
	}
	if qc.BlockID != Genesis().ID() {
		t.Fatal("genesis QC does not certify genesis block")
	}
}

// Property: distinct (view, block) pairs yield distinct signing
// digests (collision would let a vote be replayed across views).
func TestSigningDigestInjectiveQuick(t *testing.T) {
	f := func(v1, v2 uint64, b1, b2 [32]byte) bool {
		if v1 == v2 && b1 == b2 {
			return true
		}
		return !bytes.Equal(SigningDigest(View(v1), Hash(b1)), SigningDigest(View(v2), Hash(b2)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	// Smoke-test the Stringer implementations; they feed logs and
	// bench output so they must not panic on partial values.
	b := &Block{View: 1}
	for _, s := range []string{
		NodeID(3).String(), Hash{0xab}.String(), TxID{1, 2}.String(),
		b.String(), (&Vote{}).String(), (&Timeout{}).String(), (&TC{}).String(),
	} {
		if s == "" {
			t.Fatal("empty Stringer output")
		}
	}
}

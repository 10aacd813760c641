package crypto

import (
	"bufio"
	"compress/gzip"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/crypto/edwards25519"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// vector is one SUPERCOP test case: a public key, a message and its
// signature.
type vector struct {
	pub      ed25519.PublicKey
	msg, sig []byte
}

// loadVectors reads testdata/sign.input.gz, the SUPERCOP vectors the Go
// standard library tests crypto/ed25519 against (a 128-case selection of
// the 1,024 in the upstream file); vector i signs an i-byte message.
func loadVectors(tb testing.TB) []vector {
	tb.Helper()
	f, err := os.Open("testdata/sign.input.gz")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		tb.Fatal(err)
	}
	var vs []vector
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		parts := strings.Split(sc.Text(), ":")
		if len(parts) != 5 {
			tb.Fatalf("line %d: %d fields", len(vs)+1, len(parts))
		}
		pub, err1 := hex.DecodeString(parts[1])
		msg, err2 := hex.DecodeString(parts[2])
		sig, err3 := hex.DecodeString(parts[3])
		if err := errors.Join(err1, err2, err3); err != nil {
			tb.Fatalf("line %d: %v", len(vs)+1, err)
		}
		// The file's signature field is the signature followed by
		// the message.
		vs = append(vs, vector{pub: pub, msg: msg, sig: sig[:ed25519.SignatureSize]})
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return vs
}

// vectorScheme verifies under the vectors' keys: signer i+1 holds
// vs[i]'s public key.
func vectorScheme(tb testing.TB, vs []vector) *Ed25519 {
	tb.Helper()
	e := &Ed25519{pubs: make(map[types.NodeID]*ed25519Key, len(vs)), batchKey: newBatchKey()}
	for i, v := range vs {
		k, err := newEd25519Key(v.pub)
		if err != nil {
			tb.Fatalf("vector %d key: %v", i, err)
		}
		e.pubs[types.NodeID(i+1)] = k
	}
	return e
}

func TestVectorsVerifySinglyAndInBatches(t *testing.T) {
	vs := loadVectors(t)
	if len(vs) != 128 {
		t.Fatalf("%d vectors, want 128", len(vs))
	}
	e := vectorScheme(t, vs)
	for i, v := range vs {
		if err := e.Verify(types.NodeID(i+1), v.msg, v.sig); err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
	}
	// Batches of 2, 3, ..., 8, 2, ... over a permutation of the file
	// (131 is odd, so j·131 mod 128 visits every vector once).
	for start, size := 0, 2; start < len(vs); start, size = start+size, size%7+2 {
		var items []BatchItem
		for j := start; j < start+size && j < len(vs); j++ {
			idx := j * 131 % len(vs)
			items = append(items, BatchItem{Signer: types.NodeID(idx + 1), Digest: vs[idx].msg, Sig: vs[idx].sig})
		}
		if err := e.VerifyBatch(items); err != nil {
			t.Fatalf("batch of %d from position %d: %v", len(items), start, err)
		}
	}
}

// TestVerifyAgreesWithStdlib: the cofactored check and crypto/ed25519
// give the same verdict on every honest signature and on every
// single-byte tamper of one signature and its message.
func TestVerifyAgreesWithStdlib(t *testing.T) {
	vs := loadVectors(t)
	e := vectorScheme(t, vs)
	for i, v := range vs {
		if got, want := e.Verify(types.NodeID(i+1), v.msg, v.sig) == nil, ed25519.Verify(v.pub, v.msg, v.sig); got != want {
			t.Fatalf("vector %d: cofactored %v, crypto/ed25519 %v", i, got, want)
		}
	}
	const pick = 32 // a 32-byte message, the size of every digest replicas sign
	v, id := vs[pick], types.NodeID(pick+1)
	agree := func(msg, sig []byte) {
		t.Helper()
		if got, want := e.Verify(id, msg, sig) == nil, ed25519.Verify(v.pub, msg, sig); got != want {
			t.Fatalf("msg %x sig %x: cofactored %v, crypto/ed25519 %v", msg, sig, got, want)
		}
	}
	for pos := range v.sig {
		for delta := 1; delta < 256; delta++ {
			sig := append([]byte(nil), v.sig...)
			sig[pos] ^= byte(delta)
			agree(v.msg, sig)
		}
	}
	for pos := range v.msg {
		for delta := 1; delta < 256; delta++ {
			msg := append([]byte(nil), v.msg...)
			msg[pos] ^= byte(delta)
			agree(msg, v.sig)
		}
	}
}

// TestTorsionSignatureRule documents the rule change: a signature whose
// R carries a point of order 8 passes the cofactored single and batch
// checks alike, and crypto/ed25519 rejects it.
func TestTorsionSignatureRule(t *testing.T) {
	p := new(edwards25519.Point).Set(order8)
	for i := 1; i <= 3; i++ {
		if p.Equal(identity) == 1 {
			t.Fatalf("order8 has order %d", 1<<(i-1))
		}
		p.Add(p, p)
	}
	if p.Equal(identity) != 1 {
		t.Fatal("[8]order8 is not the identity")
	}

	e := NewEd25519(4, 1)
	d := types.SigningDigest(5, types.Hash{5})
	sig, err := e.SignTorsion(1, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(1, d, sig); err != nil {
		t.Fatalf("single check rejected the torsion signature: %v", err)
	}
	items := []BatchItem{{Signer: 1, Digest: d, Sig: sig}}
	for id := types.NodeID(2); id <= 4; id++ {
		honest, err := e.Sign(id, d)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Signer: id, Digest: d, Sig: honest})
	}
	if err := e.VerifyBatch(items); err != nil {
		t.Fatalf("batch check rejected the torsion signature: %v", err)
	}
	if ed25519.Verify(e.pubs[1].enc, d, sig) {
		t.Fatal("crypto/ed25519 accepted the torsion signature: it carries no torsion")
	}
}

// TestNonCanonicalSRejected: S + L stands for the same scalar as S, and
// the single and the batch check both refuse it.
func TestNonCanonicalSRejected(t *testing.T) {
	e := NewEd25519(4, 1)
	d := types.SigningDigest(5, types.Hash{5})
	sig, err := e.Sign(1, d)
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Sign(2, d)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := new(big.Int).SetString("27742317777372353535851937790883648493", 10)
	l.Add(l, new(big.Int).Lsh(big.NewInt(1), 252))
	s := new(big.Int).SetBytes(reversed(sig[32:]))
	bad := append(append([]byte(nil), sig[:32]...), reversed(s.Add(s, l).FillBytes(make([]byte, 32)))...)
	if e.Verify(1, d, bad) == nil {
		t.Fatal("single check accepted S ≥ L")
	}
	if e.VerifyBatch([]BatchItem{{Signer: 1, Digest: d, Sig: bad}, {Signer: 2, Digest: d, Sig: other}}) == nil {
		t.Fatal("batch check accepted S ≥ L")
	}
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}

// certItems returns a proposal-shaped batch: the proposer's signature
// over a block digest, then the q signatures of a QC over its own
// digest. The proposer, signer 1, is also a QC signer: a leader builds
// the QC it proposes on from the votes it collected, its own included.
func certItems(tb testing.TB, e *Ed25519, q int) []BatchItem {
	tb.Helper()
	items := []BatchItem{{Signer: 1, Digest: types.SigningDigest(8, types.Hash{8})}}
	for i := 1; i <= q; i++ {
		items = append(items, BatchItem{Signer: types.NodeID(i), Digest: types.SigningDigest(7, types.Hash{7})})
	}
	for i := range items {
		sig, err := e.Sign(items[i].Signer, items[i].Digest)
		if err != nil {
			tb.Fatal(err)
		}
		items[i].Sig = sig
	}
	return items
}

// TestBatchRejectsBadItemAtEachPosition: in a batch of seven, one bad
// item at any position — malformed, or a real signature over another
// digest — fails the batch, and VerifyQC rejects a certificate with one
// bad signature at any position, however many good ones surround it.
func TestBatchRejectsBadItemAtEachPosition(t *testing.T) {
	const q, quorum = 6, 5
	e := NewEd25519(q+1, 1)
	items := certItems(t, e, q)
	elsewhere := types.SigningDigest(9, types.Hash{9})
	for pos := range items {
		wrong, err := e.Sign(items[pos].Signer, elsewhere)
		if err != nil {
			t.Fatal(err)
		}
		for name, bad := range map[string][]byte{"malformed": []byte("not a signature"), "other digest": wrong} {
			batch := append([]BatchItem(nil), items...)
			batch[pos].Sig = bad
			if e.VerifyBatch(batch) == nil {
				t.Fatalf("batch with a %s item at %d accepted", name, pos)
			}
		}
	}
	qcItems := items[1:]
	for pos := range qcItems {
		qc := &types.QC{View: 7, BlockID: types.Hash{7}}
		for i, it := range qcItems {
			qc.Signers = append(qc.Signers, it.Signer)
			qc.Sigs = append(qc.Sigs, it.Sig)
			if i == pos {
				wrong, err := e.Sign(it.Signer, elsewhere)
				if err != nil {
					t.Fatal(err)
				}
				qc.Sigs[i] = wrong
			}
		}
		if VerifyQC(e, qc, quorum) == nil {
			t.Fatalf("bad signature at %d: strict VerifyQC accepted", pos)
		}
	}
}

// TestEd25519SignatureGolden pins signature bytes: keys are derived and
// signed with crypto/ed25519 exactly as before the verification rule
// changed.
func TestEd25519SignatureGolden(t *testing.T) {
	sig, err := NewEd25519(4, 1).Sign(1, types.SigningDigest(3, types.Hash{7}))
	if err != nil {
		t.Fatal(err)
	}
	const want = "1dba67bba38d67802f1af387fa76c16c8b26070bb27953be39c2202702cf2aa1" +
		"ffc230e566214c4c87bb8310c25750f487a3e6ff48ce8219ea0563ecb73e8209"
	if got := hex.EncodeToString(sig); got != want {
		t.Fatalf("signature %s, want %s", got, want)
	}
}

// FuzzBatchAgreesWithSingle puts one fuzzed (key, message, signature)
// item among up to seven honest vectors: the batch must accept exactly
// when the single check accepts the fuzzed item.
func FuzzBatchAgreesWithSingle(f *testing.F) {
	vs := loadVectors(f)
	for i := 0; i < len(vs); i += 97 {
		f.Add(uint16(i), uint8(i), []byte(vs[i].pub), vs[i].msg, vs[i].sig)
	}
	torsion := NewEd25519(1, 1)
	d := types.SigningDigest(5, types.Hash{5})
	sig, err := torsion.SignTorsion(1, d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(3), uint8(5), []byte(torsion.pubs[1].enc), d, sig)

	e := vectorScheme(f, vs)
	const fuzzed = types.NodeID(0)
	f.Fuzz(func(t *testing.T, pick uint16, size uint8, pub, msg, sig []byte) {
		if k, err := newEd25519Key(pub); err == nil {
			e.pubs[fuzzed] = k
		} else {
			delete(e.pubs, fuzzed)
		}
		n := int(size%8) + 1
		items := make([]BatchItem, 0, n)
		for j := 0; j < n; j++ {
			if j == int(pick)%n {
				items = append(items, BatchItem{Signer: fuzzed, Digest: msg, Sig: sig})
				continue
			}
			idx := (int(pick) + j) % len(vs)
			items = append(items, BatchItem{Signer: types.NodeID(idx + 1), Digest: vs[idx].msg, Sig: vs[idx].sig})
		}
		single := e.Verify(fuzzed, msg, sig) == nil
		if batch := e.VerifyBatch(items) == nil; batch != single {
			t.Fatalf("batch of %d says %v, single check says %v", n, batch, single)
		}
	})
}

// BenchmarkVerifyCert authenticates a proposal: its signature plus a
// q-signature QC, q = 3, 5, 6, 11, 21 being the quorums of n = 4, 7, 8,
// 16, 32. stdlib checks each signature with crypto/ed25519.Verify,
// single with Ed25519.Verify, batch with one Ed25519.VerifyBatch.
func BenchmarkVerifyCert(b *testing.B) {
	arms := []struct {
		name   string
		verify func(e *Ed25519, items []BatchItem) bool
	}{
		{"stdlib", func(e *Ed25519, items []BatchItem) bool {
			for _, it := range items {
				if !ed25519.Verify(e.pubs[it.Signer].enc, it.Digest, it.Sig) {
					return false
				}
			}
			return true
		}},
		{"single", func(e *Ed25519, items []BatchItem) bool {
			for _, it := range items {
				if e.Verify(it.Signer, it.Digest, it.Sig) != nil {
					return false
				}
			}
			return true
		}},
		{"batch", func(e *Ed25519, items []BatchItem) bool { return e.VerifyBatch(items) == nil }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			for _, q := range []int{3, 5, 6, 11, 21} {
				e := NewEd25519(q+1, 1)
				items := certItems(b, e, q)
				b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if !arm.verify(e, items) {
							b.Fatal("valid batch rejected")
						}
					}
				})
			}
		})
	}
}

// BenchmarkNewEd25519 prices a scheme's setup: deriving n key pairs and
// building each public key's fixed-base tables.
func BenchmarkNewEd25519(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewEd25519(n, 1)
			}
		})
	}
}

// BenchmarkVerifyQC is VerifyQC on a 5-of-7 certificate under each
// scheme; under hmac, which has no batch equation, its allocs/op is the
// per-certificate cost of the signature-by-signature path.
func BenchmarkVerifyQC(b *testing.B) {
	for _, name := range []string{"ed25519", "hmac"} {
		s, err := NewScheme(name, 7, 1)
		if err != nil {
			b.Fatal(err)
		}
		qc := buildQC(b, s, 5, types.Hash{5}, []types.NodeID{1, 2, 3, 4, 5})
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := VerifyQC(s, qc, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

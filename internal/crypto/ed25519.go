package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"github.com/bamboo-bft/bamboo/internal/crypto/edwards25519"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Ed25519 is a Scheme backed by per-node Ed25519 key pairs. Keys are
// derived deterministically from a seed so that every process in a
// deployment can reconstruct the shared public keyring; a production
// deployment would distribute real keys, but deterministic derivation
// keeps single-machine experiments reproducible.
//
// Signing is crypto/ed25519's. Verification is the cofactored rule of
// the package comment, one signature at a time (Verify) or as one batch
// equation (VerifyBatch), over fixed-base tables built here for every
// public key.
type Ed25519 struct {
	pubs  map[types.NodeID]*ed25519Key
	privs map[types.NodeID]ed25519.PrivateKey
	// batchKey seeds the batch coefficients. It is drawn once, so no
	// signer can know the weight its signature will be given.
	batchKey *[32]byte
}

// ed25519Key is a public key in both forms verification uses: the
// encoding the challenge hash covers and the point's fixed-base tables
// (20 KiB), decoded and built once.
type ed25519Key struct {
	enc   ed25519.PublicKey
	table *edwards25519.KeyTable
}

func newEd25519Key(pub []byte) (*ed25519Key, error) {
	p, err := new(edwards25519.Point).SetBytes(pub)
	if err != nil {
		return nil, err
	}
	return &ed25519Key{enc: pub, table: edwards25519.NewKeyTable(p)}, nil
}

// newBatchKey draws a scheme's batch coefficient key.
func newBatchKey() *[32]byte {
	k := new([32]byte)
	if _, err := rand.Read(k[:]); err != nil {
		// Only a host without an entropy source gets here, and a
		// predictable key would let a signer forge a passing batch.
		panic("crypto: no randomness for the batch coefficient key: " + err.Error())
	}
	return k
}

// NewEd25519 derives key pairs for nodes 1..n from seed.
func NewEd25519(n int, seed int64) *Ed25519 {
	e := &Ed25519{
		pubs:     make(map[types.NodeID]*ed25519Key, n),
		privs:    make(map[types.NodeID]ed25519.PrivateKey, n),
		batchKey: newBatchKey(),
	}
	for i := 1; i <= n; i++ {
		id := types.NodeID(i)
		var material [32]byte
		binary.BigEndian.PutUint64(material[:8], uint64(seed))
		binary.BigEndian.PutUint64(material[8:16], uint64(i))
		copy(material[16:], "bamboo-ed25519ks")
		ks := sha256.Sum256(material[:])
		priv := ed25519.NewKeyFromSeed(ks[:])
		e.privs[id] = priv
		pub, _ := priv.Public().(ed25519.PublicKey)
		key, err := newEd25519Key(pub)
		if err != nil {
			// crypto/ed25519 derives every public key as a curve
			// point; this cannot happen.
			continue
		}
		e.pubs[id] = key
	}
	return e
}

// Restrict returns a copy of the scheme holding only id's private key
// (all public keys are retained). Multi-process deployments use this
// so a replica cannot sign for its peers.
func (e *Ed25519) Restrict(id types.NodeID) *Ed25519 {
	r := &Ed25519{
		pubs:     e.pubs,
		privs:    make(map[types.NodeID]ed25519.PrivateKey, 1),
		batchKey: e.batchKey,
	}
	if priv, ok := e.privs[id]; ok {
		r.privs[id] = priv
	}
	return r
}

// Name implements Scheme.
func (e *Ed25519) Name() string { return "ed25519" }

// Sign implements Scheme.
func (e *Ed25519) Sign(signer types.NodeID, digest []byte) ([]byte, error) {
	priv, ok := e.privs[signer]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrMissingKey, signer)
	}
	return ed25519.Sign(priv, digest), nil
}

// Verify implements Scheme with the cofactored single check
// [8](S·B − k·A − R) = O.
func (e *Ed25519) Verify(signer types.NodeID, digest, sig []byte) error {
	key, ok := e.pubs[signer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, signer)
	}
	w := verifyPool.Get().(*verifyWork)
	defer verifyPool.Put(w)
	w.grow(1)
	t := &w.terms[0]
	if !w.decode(t, key, digest, sig) {
		return fmt.Errorf("%w: %s", ErrBadSignature, signer)
	}
	t.k.Negate(&t.k)
	w.keyScalars = append(w.keyScalars[:0], &t.S, &t.k)
	w.keys = append(w.keys[:0], basepoint, key.table)
	w.acc.VarTimeKeyedMultiScalarMult(w.keyScalars, w.keys, nil, nil)
	if !cofactoredIdentity(w.acc.Subtract(&w.acc, &t.R)) {
		return fmt.Errorf("%w: %s", ErrBadSignature, signer)
	}
	return nil
}

// VerifyBatch implements BatchScheme. Two or more items are checked as
// one cofactored equation,
//
//	[8]((Σ z_i·S_i)·B − Σ (z_i·k_i)·A_i − Σ z_i·R_i) = O,
//
// in a single multi-scalar multiplication, the terms of one signer
// sharing one point. z_0 is 1 and the other z_i are 128-bit. Every
// choice of them satisfies the equation when every item passes Verify.
// With a failing item i > 0, at most a 2^-128 share of the choices of
// z_i does; with item 0 failing alone, none does. So fixing z_0 costs
// no soundness, and it saves R_0's term: R_0 is subtracted after the
// multiplication, as in the single check. The other z_i are SHA-512 of
// the scheme's batch key and the whole batch, so they are fixed by the
// batch yet unknown to its signers. One item takes the single check,
// which is cheaper.
func (e *Ed25519) VerifyBatch(items []BatchItem) error {
	if len(items) == 1 {
		return e.Verify(items[0].Signer, items[0].Digest, items[0].Sig)
	}
	w := verifyPool.Get().(*verifyWork)
	defer verifyPool.Put(w)
	w.grow(len(items))
	for i := range items {
		key, ok := e.pubs[items[i].Signer]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownSigner, items[i].Signer)
		}
		if !w.decode(&w.terms[i], key, items[i].Digest, items[i].Sig) {
			return fmt.Errorf("%w: %s", ErrBadSignature, items[i].Signer)
		}
	}
	w.coefficients(e.batchKey, items)
	w.scalars, w.points = w.scalars[:0], w.points[:0]
	// B's scalar, Σ z_i·S_i, is the first key's.
	w.a[0] = edwards25519.Scalar{}
	w.keyScalars = append(w.keyScalars[:0], &w.a[0])
	w.keys = append(w.keys[:0], basepoint)
	for i := range items {
		t, z := &w.terms[i], &w.z[i]
		w.a[0].MultiplyAdd(z, &t.S, &w.a[0])
		if i > 0 {
			w.scalars = append(w.scalars, z)
			w.points = append(w.points, t.R.Negate(&t.R))
		}
		t.k.Negate(t.k.Multiply(&t.k, z))
		j := 1
		for j < len(w.keys) && w.keys[j] != t.key.table {
			j++
		}
		if j == len(w.keys) {
			w.a[j] = edwards25519.Scalar{}
			w.keyScalars = append(w.keyScalars, &w.a[j])
			w.keys = append(w.keys, t.key.table)
		}
		w.a[j].Add(&w.a[j], &t.k)
	}
	w.acc.VarTimeKeyedMultiScalarMult(w.keyScalars, w.keys, w.scalars, w.points)
	if !cofactoredIdentity(w.acc.Subtract(&w.acc, &w.terms[0].R)) {
		return fmt.Errorf("%w: batch of %d", ErrBadSignature, len(items))
	}
	return nil
}

// sigTerms is one signature's share of the verification equation.
type sigTerms struct {
	key  *ed25519Key
	R    edwards25519.Point
	S, k edwards25519.Scalar
}

// verifyWork is the working set of one Verify or VerifyBatch call. It
// is pooled, so the scheme, which every replica goroutine shares, holds
// no mutable state, and verification does not allocate once warm.
type verifyWork struct {
	h     hash.Hash
	buf   [64]byte
	sum   [64]byte
	wide  [32]byte
	terms []sigTerms
	z, a  []edwards25519.Scalar
	acc   edwards25519.Point
	// The multi-scalar multiplication's operands: one scalar for B and
	// one per distinct signer's key, and one per R but the first.
	keyScalars []*edwards25519.Scalar
	keys       []*edwards25519.KeyTable
	scalars    []*edwards25519.Scalar
	points     []*edwards25519.Point
}

var verifyPool = sync.Pool{New: func() any { return &verifyWork{h: sha512.New()} }}

// grow sizes the working set for a batch of n.
func (w *verifyWork) grow(n int) {
	if len(w.terms) >= n {
		return
	}
	w.terms = make([]sigTerms, n)
	w.z = make([]edwards25519.Scalar, n)
	w.a = make([]edwards25519.Scalar, n+1)
	w.keyScalars = make([]*edwards25519.Scalar, 0, n+1)
	w.keys = make([]*edwards25519.KeyTable, 0, n+1)
	w.scalars = make([]*edwards25519.Scalar, 0, n)
	w.points = make([]*edwards25519.Point, 0, n)
}

// decode loads sig by key over msg into t. S must be canonical (S < L);
// R may be any encoding of a curve point, canonical or not (ZIP 215);
// k = SHA-512(R ‖ A ‖ msg) mod L.
func (w *verifyWork) decode(t *sigTerms, key *ed25519Key, msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	if _, err := t.S.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	if _, err := t.R.SetBytes(sig[:32]); err != nil {
		return false
	}
	t.key = key
	w.h.Reset()
	w.h.Write(sig[:32])
	w.h.Write(key.enc)
	w.h.Write(msg)
	_, err := t.k.SetUniformBytes(w.h.Sum(w.sum[:0]))
	return err == nil
}

// coefficients sets w.z[i] for every item: z_0 = 1, and the others
// 128-bit values, four per SHA-512(seed ‖ block index), where seed is
// SHA-512 of the batch key and every (signer, digest, signature) of the
// batch.
func (w *verifyWork) coefficients(key *[32]byte, items []BatchItem) {
	w.h.Reset()
	w.h.Write(key[:])
	for i := range items {
		binary.BigEndian.PutUint32(w.buf[0:], uint32(items[i].Signer))
		binary.BigEndian.PutUint32(w.buf[4:], uint32(len(items[i].Digest)))
		binary.BigEndian.PutUint32(w.buf[8:], uint32(len(items[i].Sig)))
		w.h.Write(w.buf[:12])
		w.h.Write(items[i].Digest)
		w.h.Write(items[i].Sig)
	}
	seed := w.h.Sum(w.buf[:0])
	w.z[0] = *scalarOne
	for i := 1; i < len(items); i++ {
		if b := i - 1; b%4 == 0 {
			w.h.Reset()
			w.h.Write(seed)
			binary.BigEndian.PutUint32(w.sum[:4], uint32(b/4))
			w.h.Write(w.sum[:4])
			w.h.Sum(w.sum[:0])
		}
		copy(w.wide[:16], w.sum[16*((i-1)%4):])
		// Below 2^128 < L, so always canonical.
		_, _ = w.z[i].SetCanonicalBytes(w.wide[:])
	}
}

// basepoint is the fixed-base table of B, built once per process.
var basepoint = edwards25519.NewKeyTable(edwards25519.NewGeneratorPoint())

// scalarOne is the coefficient of a batch's first item.
var scalarOne, _ = edwards25519.NewScalar().SetCanonicalBytes(append([]byte{1}, make([]byte, 31)...))

// identity is the neutral element the cofactored checks compare with.
var identity = edwards25519.NewIdentityPoint()

// cofactoredIdentity reports whether [8]p is the identity. It
// overwrites p.
func cofactoredIdentity(p *edwards25519.Point) bool {
	p.Add(p, p)
	p.Add(p, p)
	p.Add(p, p)
	return p.Equal(identity) == 1
}

// order8 is a point of order 8, a generator of the curve's torsion.
var order8, _ = new(edwards25519.Point).SetBytes([]byte{
	0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f,
	0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10, 0x67, 0x0f,
	0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6,
	0x4e, 0xc7, 0xfd, 0x77, 0x92, 0xac, 0x03, 0x7a})

// SignTorsion signs digest the way a Byzantine holder of signer's key
// can: a signature whose R carries an added point of order 8. The
// cofactored rule accepts it and crypto/ed25519.Verify does not; it
// exists so tests can check that every verification path gives such a
// signature one verdict.
func (e *Ed25519) SignTorsion(signer types.NodeID, digest []byte) ([]byte, error) {
	priv, ok := e.privs[signer]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrMissingKey, signer)
	}
	// Both inputs have the lengths these setters require, so neither
	// can fail.
	h := sha512.Sum512(priv.Seed())
	a, _ := edwards25519.NewScalar().SetBytesWithClamping(h[:32])
	nonce := sha512.Sum512(append(h[32:], digest...))
	r, _ := edwards25519.NewScalar().SetUniformBytes(nonce[:])
	R := new(edwards25519.Point).ScalarBaseMult(r)
	sig := R.Add(R, order8).Bytes()
	var challenge []byte
	challenge = append(challenge, sig...)
	challenge = append(challenge, priv.Public().(ed25519.PublicKey)...)
	kh := sha512.Sum512(append(challenge, digest...))
	k, _ := edwards25519.NewScalar().SetUniformBytes(kh[:])
	return append(sig, edwards25519.NewScalar().MultiplyAdd(k, a, r).Bytes()...), nil
}

package edwards25519

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// order8Bytes encodes a point of order 8.
var order8Bytes = []byte{
	0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f,
	0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10, 0x67, 0x0f,
	0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6,
	0x4e, 0xc7, 0xfd, 0x77, 0x92, 0xac, 0x03, 0x7a}

func order8Point(tb testing.TB) *Point {
	tb.Helper()
	p, err := new(Point).SetBytes(order8Bytes)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// referenceMSM is b·B + Σ scalars[i]·points[i] by the constant-time
// ScalarBaseMult and ScalarMult, one term at a time.
func referenceMSM(b *Scalar, scalars []*Scalar, points []*Point) *Point {
	v := new(Point).ScalarBaseMult(b)
	for i := range points {
		v.Add(v, new(Point).ScalarMult(scalars[i], points[i]))
	}
	return v
}

// baseTable is B's key table, the first key of every kernel call here.
var baseTable = NewKeyTable(NewGeneratorPoint())

// agrees checks b·B + Σ keyScalars[j]·keyPoints[j] + Σ scalars[i]·points[i]
// by the kernel, with B and the keyPoints given as key tables, against
// referenceMSM.
func agrees(t *testing.T, b *Scalar, keyScalars []*Scalar, keyPoints []*Point, scalars []*Scalar, points []*Point) {
	t.Helper()
	keys := []*KeyTable{baseTable}
	for _, p := range keyPoints {
		keys = append(keys, NewKeyTable(p))
	}
	got := new(Point).VarTimeKeyedMultiScalarMult(append([]*Scalar{b}, keyScalars...), keys, scalars, points)
	want := referenceMSM(b, append(append([]*Scalar(nil), keyScalars...), scalars...),
		append(append([]*Point(nil), keyPoints...), points...))
	if got.Equal(want) != 1 {
		t.Fatalf("kernel %x, reference %x (b %x, %d keys, %d points)",
			got.Bytes(), want.Bytes(), b.Bytes(), len(keyPoints), len(points))
	}
}

func randomScalar(rng *rand.Rand) *Scalar {
	var wide [64]byte
	rng.Read(wide[:])
	s, _ := NewScalar().SetUniformBytes(wide[:])
	return s
}

// shortScalar is below 2^128, the size of a batch coefficient.
func shortScalar(rng *rand.Rand) *Scalar {
	var b [32]byte
	rng.Read(b[:16])
	s, _ := NewScalar().SetCanonicalBytes(b[:])
	return s
}

func randomPoint(rng *rand.Rand) *Point {
	return new(Point).ScalarBaseMult(randomScalar(rng))
}

// edgeScalars are 0, 1, 2^128−1, 2^128, 2^128+1 and L−1: the ends of
// both halves of a scalar split at 2^128, and the largest scalar.
func edgeScalars(tb testing.TB) []*Scalar {
	tb.Helper()
	var out []*Scalar
	for _, x := range []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 128),
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1)),
	} {
		out = append(out, scalarFromInt(tb, x))
	}
	one := scalarFromInt(tb, big.NewInt(1))
	return append(out, NewScalar().Negate(one))
}

func scalarFromInt(tb testing.TB, x *big.Int) *Scalar {
	tb.Helper()
	var le [32]byte
	x.FillBytes(le[:])
	for i := 0; i < 16; i++ {
		le[i], le[31-i] = le[31-i], le[i]
	}
	s, err := NewScalar().SetCanonicalBytes(le[:])
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestKeyedMSMRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 40; iter++ {
		nKeys, nPoints := iter%5, (iter/5)%6
		var keyScalars, scalars []*Scalar
		var keyPoints, points []*Point
		for j := 0; j < nKeys; j++ {
			keyScalars = append(keyScalars, randomScalar(rng))
			keyPoints = append(keyPoints, randomPoint(rng))
		}
		for i := 0; i < nPoints; i++ {
			// Short scalars as in a batch check, and full ones,
			// which lengthen the chain.
			if iter%2 == 0 {
				scalars = append(scalars, shortScalar(rng))
			} else {
				scalars = append(scalars, randomScalar(rng))
			}
			points = append(points, randomPoint(rng))
		}
		agrees(t, randomScalar(rng), keyScalars, keyPoints, scalars, points)
	}
}

func TestKeyedMSMEdgeScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edges := edgeScalars(t)
	key, point := randomPoint(rng), randomPoint(rng)
	for _, b := range edges {
		for _, a := range edges {
			for _, s := range edges {
				agrees(t, b, []*Scalar{a}, []*Point{key}, []*Scalar{s}, []*Point{point})
			}
		}
	}
}

func TestKeyedMSMTorsionPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t8 := order8Point(t)
	// Every multiple of the order-8 point, alone and added to a point
	// of prime order.
	torsion := new(Point).Set(NewIdentityPoint())
	for k := 0; k < 8; k++ {
		key := new(Point).Add(randomPoint(rng), torsion)
		point := new(Point).Add(randomPoint(rng), torsion)
		for _, a := range append(edgeScalars(t), randomScalar(rng)) {
			agrees(t, randomScalar(rng), []*Scalar{a, randomScalar(rng)}, []*Point{key, torsion},
				[]*Scalar{shortScalar(rng), a}, []*Point{point, torsion})
		}
		torsion.Add(torsion, t8)
	}
}

func TestKeyedMSMNonCanonicalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// p + y for y < 19 is below 2^255 and encodes the y-coordinate y
	// non-canonically; those with a matching x decode, with either
	// sign bit.
	p, _ := new(big.Int).SetString("57896044618658097711785492504343953926634992332820282019728792003956564819949", 10)
	var decoded []*Point
	for y := int64(0); y < 19; y++ {
		var enc [32]byte
		new(big.Int).Add(p, big.NewInt(y)).FillBytes(enc[:])
		for i := 0; i < 16; i++ {
			enc[i], enc[31-i] = enc[31-i], enc[i]
		}
		for _, sign := range []byte{0, 0x80} {
			enc[31] = enc[31]&0x7f | sign
			pt, err := new(Point).SetBytes(enc[:])
			if err != nil {
				continue
			}
			if string(pt.Bytes()) == string(enc[:]) {
				t.Fatalf("encoding %x is canonical", enc)
			}
			decoded = append(decoded, pt)
		}
	}
	if len(decoded) < 2 {
		t.Fatalf("only %d non-canonical encodings decoded", len(decoded))
	}
	for _, pt := range decoded {
		for _, a := range edgeScalars(t) {
			agrees(t, randomScalar(rng), []*Scalar{a}, []*Point{pt}, []*Scalar{a}, []*Point{pt})
		}
	}
}

// TestKeyedMSMNoVariableTerms: the single check's shape, b·B + a·A,
// and the degenerate b·B alone.
func TestKeyedMSMNoVariableTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range append(edgeScalars(t), randomScalar(rng)) {
		agrees(t, b, nil, nil, nil, nil)
		for _, a := range append(edgeScalars(t), randomScalar(rng)) {
			agrees(t, b, []*Scalar{a}, []*Point{randomPoint(rng)}, nil, nil)
		}
	}
}

func TestKeyedMSMMismatchedInputsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	new(Point).VarTimeKeyedMultiScalarMult([]*Scalar{NewScalar()}, nil, nil, nil)
}

// FuzzKeyedMSMAgrees holds the kernel to referenceMSM on fuzzed scalars
// and points: each 32-byte chunk of data is a scalar (reduced if it is
// not canonical) or a point (decoded if it encodes one, else a multiple
// of B plus a multiple of the order-8 point).
func FuzzKeyedMSMAgrees(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{})
	f.Add(uint8(2), uint8(3), []byte{0xff, 0xff, 0xff, 0xff})
	chunk := make([]byte, 0, 32*6)
	for _, s := range edgeScalars(f) {
		chunk = append(chunk, s.Bytes()...)
	}
	f.Add(uint8(3), uint8(2), chunk)
	f.Add(uint8(1), uint8(1), append(append([]byte(nil), order8Bytes...), chunk...))
	t8 := order8Point(f)
	f.Fuzz(func(t *testing.T, nKeys, nPoints uint8, data []byte) {
		var next int
		read := func() []byte {
			var b [32]byte
			for i := range b {
				if len(data) > 0 {
					b[i] = data[(next+i)%len(data)]
				}
			}
			next += 32
			return b[:]
		}
		scalar := func() *Scalar {
			b := read()
			if s, err := NewScalar().SetCanonicalBytes(b); err == nil {
				return s
			}
			var wide [64]byte
			copy(wide[:], b)
			s, _ := NewScalar().SetUniformBytes(wide[:])
			return s
		}
		point := func() *Point {
			b := read()
			if p, err := new(Point).SetBytes(b); err == nil {
				return p
			}
			p := new(Point).ScalarBaseMult(scalar())
			for k := b[0] % 8; k > 0; k-- {
				p.Add(p, t8)
			}
			return p
		}
		var keyScalars, scalars []*Scalar
		var keyPoints, points []*Point
		for j := 0; j < int(nKeys%4); j++ {
			keyScalars = append(keyScalars, scalar())
			keyPoints = append(keyPoints, point())
		}
		for i := 0; i < int(nPoints%4); i++ {
			scalars = append(scalars, scalar())
			points = append(points, point())
		}
		agrees(t, scalar(), keyScalars, keyPoints, scalars, points)
	})
}

func BenchmarkNewKeyTable(b *testing.B) {
	var seed [64]byte
	binary.LittleEndian.PutUint64(seed[:], 7)
	s, _ := NewScalar().SetUniformBytes(seed[:])
	p := new(Point).ScalarBaseMult(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewKeyTable(p)
	}
}

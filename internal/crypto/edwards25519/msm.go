// Provenance: every other file in this package and in field/ is a
// verbatim copy of $(go env GOROOT)/src/crypto/internal/fips140/edwards25519
// from go1.24.0 (its LICENSE sits beside them), with only these rewrites:
//
//   - import crypto/internal/fips140/edwards25519/field →
//     github.com/bamboo-bft/bamboo/internal/crypto/edwards25519/field;
//   - import crypto/internal/fips140/subtle → crypto/subtle;
//   - import crypto/internal/fips140deps/byteorder → encoding/binary, and
//     byteorder.LEUint64 / byteorder.LEPutUint64 →
//     binary.LittleEndian.Uint64 / binary.LittleEndian.PutUint64;
//   - the blank import of crypto/internal/fips140/check dropped;
//   - gofmt's re-sorting of an import block the rewrites unsorted.
//
// This file is the only addition. KeyTable holds the fixed-base tables
// of a point A, a public key or the base point B: the width-8 NAF
// tables of A and of 2^128·A, 20 KiB, built once per key.
// VarTimeKeyedMultiScalarMult is the one multi-scalar multiplication
// both signature checks of internal/crypto run. It splits the NAF of
// every scalar on a key at digit 128, so with the 128-bit scalars of a
// batch check on the other points its doubling chain is at most 129
// steps long instead of 253. On a 2-vCPU x86-64 host, a single
// signature check costs about 35 µs with the tables (52 µs before
// them), a batch of seven about 130–145 µs (165–190 µs), and a key's
// tables about 50 µs to build.
//
// To audit the copy with a go1.24.0 toolchain, from the repository
// root:
//
//	for f in doc.go edwards25519.go scalar.go scalar_fiat.go scalarmult.go tables.go \
//	    field/fe.go field/fe_generic.go field/fe_amd64.go field/fe_amd64.s \
//	    field/fe_amd64_noasm.go field/fe_arm64.go field/fe_arm64.s field/fe_arm64_noasm.go; do
//	  diff "$(go env GOROOT)/src/crypto/internal/fips140/edwards25519/$f" "internal/crypto/edwards25519/$f"
//	done
//
// It must print only import and byteorder lines.

package edwards25519

import "sync"

// nafTable8Cached holds the odd multiples P, 3P, ..., 127P of a point,
// a width-8 NAF table like nafLookupTable8 but in projCached form, so
// that building it takes no field inversion.
type nafTable8Cached [64]projCached

func (t *nafTable8Cached) fromP3(p *Point) {
	t[0].FromP3(p)
	p2 := Point{}
	p2.Add(p, p)
	tmpP3 := Point{}
	tmpP1xP1 := projP1xP1{}
	for i := 0; i < 63; i++ {
		t[i+1].FromP3(tmpP3.fromP1xP1(tmpP1xP1.Add(&p2, &t[i])))
	}
}

// KeyTable is the fixed-base precomputation of a point A, typically a
// public key: the width-8 NAF tables of A and of 2^128·A, 20 KiB in
// all. VarTimeKeyedMultiScalarMult multiplies A through it by any
// scalar with a 128-step doubling chain and no per-call table.
type KeyTable struct {
	lo, hi nafTable8Cached
}

// NewKeyTable precomputes the tables of a.
func NewKeyTable(a *Point) *KeyTable {
	checkInitialized(a)
	t := new(KeyTable)
	t.lo.fromP3(a)
	var hi Point
	t.hi.fromP3(shiftedPoint(&hi, a))
	return t
}

// shiftedPoint sets v = 2^128·p and returns v.
func shiftedPoint(v, p *Point) *Point {
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.FromP3(p)
	for i := 0; i < 128; i++ {
		tmp1.Double(tmp2)
		tmp2.FromP1xP1(tmp1)
	}
	return v.fromP2(tmp2)
}

// msmScratch holds the digit expansions and lookup tables of one
// VarTimeKeyedMultiScalarMult call. It is pooled, so a stream of calls
// allocates nothing once the pool has grown to the largest call.
type msmScratch struct {
	nafs   [][256]int8       // one per key, then one per point
	tables []nafLookupTable5 // the per-call tables of the points
	// The chain reads digits[k][i] against cached[k] at step i: the
	// low and high halves of a key's NAF against its two tables, and a
	// point's whole NAF against its table.
	digits [][]int8
	cached [][]projCached
}

var msmPool = sync.Pool{New: func() any { return new(msmScratch) }}

// VarTimeKeyedMultiScalarMult sets
//
//	v = Σ keyScalars[j]·A_j + Σ scalars[i]·points[i],
//
// where A_j is the point keys[j] was built from, and returns v. The
// base point B enters as a key, NewKeyTable(NewGeneratorPoint()). It
// panics if a scalar list and its point list differ in length.
//
// It is Straus's method over one shared chain of doublings. A key's
// scalar is expanded once, as a width-8 NAF, and the expansion is split
// at digit 128: a = a_lo + 2^128·a_hi, where a_lo sums the digits below
// 128 and a_hi the rest. a_lo reads the table of A, a_hi that of
// 2^128·A, so a key's digits span only the last 128 doublings. The
// split is an identity of integers, so the sum is the same point as the
// unsplit one for any A_j, small-order components included. The points
// get a width-5 table per call; when their scalars are below 2^128, as
// the coefficients of a batch check are, the chain is at most 129
// doublings long instead of 253.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeKeyedMultiScalarMult(keyScalars []*Scalar, keys []*KeyTable, scalars []*Scalar, points []*Point) *Point {
	if len(keyScalars) != len(keys) || len(scalars) != len(points) {
		panic("edwards25519: VarTimeKeyedMultiScalarMult called with mismatched inputs")
	}
	checkInitialized(points...)

	s := msmPool.Get().(*msmScratch)
	defer msmPool.Put(s)
	terms, rows := len(keys)+len(points), 2*len(keys)+len(points)
	if len(s.nafs) < terms {
		s.nafs = make([][256]int8, terms)
	}
	if len(s.digits) < rows {
		s.digits = make([][]int8, rows)
		s.cached = make([][]projCached, rows)
	}
	if len(s.tables) < len(points) {
		s.tables = make([]nafLookupTable5, len(points))
	}
	nafs, digits, cached := s.nafs[:terms], s.digits[:rows], s.cached[:rows]
	for j, k := range keys {
		nafs[j] = keyScalars[j].nonAdjacentForm(8)
		digits[2*j], cached[2*j] = nafs[j][:128], k.lo[:]
		digits[2*j+1], cached[2*j+1] = nafs[j][128:], k.hi[:]
	}
	for i, p := range points {
		j := len(keys) + i
		s.tables[i].FromP3(p)
		nafs[j] = scalars[i].nonAdjacentForm(5)
		digits[len(keys)+j], cached[len(keys)+j] = nafs[j][:], s.tables[i].points[:]
	}

	// Start at the highest digit that is nonzero in any row.
	top := -1
	for _, row := range digits {
		for i := len(row) - 1; i > top; i-- {
			if row[i] != 0 {
				top = i
				break
			}
		}
	}

	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()
	for i := top; i >= 0; i-- {
		tmp1.Double(tmp2)
		for k, row := range digits {
			if i >= len(row) {
				continue
			}
			if d := row[i]; d > 0 {
				v.fromP1xP1(tmp1)
				tmp1.Add(v, &cached[k][d/2])
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				tmp1.Sub(v, &cached[k][-d/2])
			}
		}
		tmp2.FromP1xP1(tmp1)
	}
	v.fromP2(tmp2)
	return v
}

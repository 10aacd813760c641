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
// This file is the only addition. To audit the copy with a go1.24.0
// toolchain, from the repository root:
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

// msmScratch holds the per-point lookup tables and digit expansions of
// one VarTimeMultiScalarBaseMult call. It is pooled, so a stream of
// calls allocates nothing once the pool has grown to the largest call.
type msmScratch struct {
	tables []nafLookupTable5
	nafs   [][256]int8
}

var msmPool = sync.Pool{New: func() any { return new(msmScratch) }}

// VarTimeMultiScalarBaseMult sets v = b * B + sum(scalars[i] * points[i]),
// where B is the canonical generator, and returns v. It panics if scalars
// and points differ in length.
//
// It is Straus's method: one shared chain of doublings, a width-5 NAF
// table per point, and the precomputed width-8 NAF table for B, as in
// VarTimeDoubleScalarBaseMult.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeMultiScalarBaseMult(b *Scalar, scalars []*Scalar, points []*Point) *Point {
	if len(scalars) != len(points) {
		panic("edwards25519: VarTimeMultiScalarBaseMult called with mismatched inputs")
	}
	checkInitialized(points...)

	s := msmPool.Get().(*msmScratch)
	defer msmPool.Put(s)
	if len(s.tables) < len(points) {
		s.tables = make([]nafLookupTable5, len(points))
		s.nafs = make([][256]int8, len(points))
	}
	tables, nafs := s.tables[:len(points)], s.nafs[:len(points)]
	for i := range points {
		tables[i].FromP3(points[i])
		nafs[i] = scalars[i].nonAdjacentForm(5)
	}
	bTable := basepointNafTable()
	bNaf := b.nonAdjacentForm(8)

	// Start at the highest digit that is nonzero in any expansion.
	top := 255
	for ; top >= 0 && bNaf[top] == 0; top-- {
		nonzero := false
		for j := range nafs {
			if nafs[j][top] != 0 {
				nonzero = true
				break
			}
		}
		if nonzero {
			break
		}
	}

	multA := &projCached{}
	multB := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()
	for i := top; i >= 0; i-- {
		tmp1.Double(tmp2)
		for j := range nafs {
			if d := nafs[j][i]; d > 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(multA, d)
				tmp1.Add(v, multA)
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				tables[j].SelectInto(multA, -d)
				tmp1.Sub(v, multA)
			}
		}
		if d := bNaf[i]; d > 0 {
			v.fromP1xP1(tmp1)
			bTable.SelectInto(multB, d)
			tmp1.AddAffine(v, multB)
		} else if d < 0 {
			v.fromP1xP1(tmp1)
			bTable.SelectInto(multB, -d)
			tmp1.SubAffine(v, multB)
		}
		tmp2.FromP1xP1(tmp1)
	}
	v.fromP2(tmp2)
	return v
}

package codec

import (
	"errors"
	"reflect"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestFieldPrimitives: the exported block and certificate primitives
// the on-disk formats build on agree with their size functions, round
// trip through Reader, and fail closed on a cut body.
func TestFieldPrimitives(t *testing.T) {
	proposal := registryFixtures()[0].Msg.(types.ProposalMsg)
	for _, blk := range []*types.Block{nil, {View: 3}, proposal.Block} {
		var qc *types.QC
		if blk != nil {
			qc = blk.QC
		}
		enc := AppendQC(AppendBlock(nil, blk), qc)
		if len(enc) != BlockSize(blk)+QCSize(qc) {
			t.Fatalf("encoded %d bytes, sizes say %d", len(enc), BlockSize(blk)+QCSize(qc))
		}
		r := NewReader(enc)
		gotBlk, gotQC := r.Block(), r.QC()
		if r.Err() != nil || !reflect.DeepEqual(gotBlk, blk) || !reflect.DeepEqual(gotQC, qc) {
			t.Fatalf("round trip: %+v / %+v (err %v), want %+v / %+v", gotBlk, gotQC, r.Err(), blk, qc)
		}
		for cut := 1; cut < len(enc); cut++ {
			r := NewReader(enc[:cut])
			r.Block()
			r.QC()
			if !errors.Is(r.Err(), ErrBadFrame) {
				t.Fatalf("body cut at %d of %d decoded cleanly", cut, len(enc))
			}
		}
	}
}

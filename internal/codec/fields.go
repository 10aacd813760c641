package codec

// The exported face of the wire.go field primitives, for the on-disk
// formats (safety WAL, ledger, snapshot store). They frame and version
// their own records but encode blocks and certificates exactly as the
// wire does, so there is one serialization of a block in the codebase.

import "github.com/bamboo-bft/bamboo/internal/types"

// AppendBlock appends blk in the wire layout (presence byte first; nil
// encodes as one zero byte).
func AppendBlock(b []byte, blk *types.Block) []byte { return appendBlockPtr(b, blk) }

// BlockSize is the exact number of bytes AppendBlock appends.
func BlockSize(blk *types.Block) int { return sizeBlockPtr(blk) }

// AppendQC appends qc in the wire layout (presence byte first).
func AppendQC(b []byte, qc *types.QC) []byte { return appendQCPtr(b, qc) }

// QCSize is the exact number of bytes AppendQC appends.
func QCSize(qc *types.QC) int { return sizeQCPtr(qc) }

// Reader parses one record body with the wire decoder's rules: every
// read is length-checked, slice counts are bounded by the bytes
// actually present, byte fields are carved from one arena no larger
// than the body, and the first violation sticks — later reads return
// zero values and Err reports it.
type Reader struct{ r reader }

// NewReader returns a Reader over body. Decoded values never alias
// body, so the caller may reuse it.
func NewReader(body []byte) *Reader { return &Reader{r: *newReader(body)} }

func (r *Reader) U64() uint64         { return r.r.u64() }
func (r *Reader) Hash() types.Hash    { return r.r.hash() }
func (r *Reader) QC() *types.QC       { return r.r.qc() }
func (r *Reader) Block() *types.Block { return r.r.block() }

// Count reads a u32 element count, failing when the body cannot hold
// that many elements of at least elemMin bytes each.
func (r *Reader) Count(elemMin int, what string) int { return r.r.count(elemMin, what) }

// Err is the first violation met, wrapping ErrBadFrame, or nil.
func (r *Reader) Err() error { return r.r.err }

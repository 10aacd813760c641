package codec_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// The perf-smoke CI job gates these two benchmarks against
// bench-results/BENCH_wire.json: allocs/op and B/frame exactly, ns/op
// within 4x, and the mix against the frozen numbers of the gob codec
// the wire format replaced.

// sigSize matches the ed25519 signature length.
const sigSize = 64

type fixture struct {
	name string
	msg  any
}

// benchTx builds a deterministic transaction with a cmd-byte command.
func benchTx(i, cmd int) types.Transaction {
	command := make([]byte, cmd)
	for j := range command {
		command[j] = byte(i ^ j)
	}
	return types.Transaction{
		ID:             types.TxID{Client: uint64(i%16 + 1), Seq: uint64(i)},
		Command:        command,
		SubmitUnixNano: int64(1_700_000_000_000_000_000 + i),
	}
}

// fixtures returns the message mix a loopback TCP deployment moves:
// the paper's default proposal (400 transactions of 128 bytes, a
// three-signer QC), the vote that certifies it, and each transaction's
// client request and commit reply.
func fixtures() []fixture {
	qc := &types.QC{View: 41, BlockID: types.Hash{0xAB}}
	for i := 0; i < 3; i++ {
		sig := make([]byte, sigSize)
		for j := range sig {
			sig[j] = byte(i + j)
		}
		qc.Signers = append(qc.Signers, types.NodeID(i+1))
		qc.Sigs = append(qc.Sigs, sig)
	}
	txs := make([]types.Transaction, 400)
	for i := range txs {
		txs[i] = benchTx(i, 128)
	}
	return []fixture{
		{"proposal-400", types.ProposalMsg{Block: &types.Block{
			View: 42, Proposer: 2, Parent: types.Hash{0xAB}, QC: qc, Payload: txs, Sig: make([]byte, sigSize),
		}}},
		{"vote", types.VoteMsg{Vote: &types.Vote{
			View: 42, BlockID: types.Hash{0xEF}, Voter: 3, Sig: make([]byte, sigSize),
		}}},
		{"request", types.RequestMsg{Tx: benchTx(0, 128)}},
		{"reply", types.ReplyMsg{TxID: types.TxID{Client: 1, Seq: 7}, View: 42, BlockID: types.Hash{0xEF}}},
	}
}

// BenchmarkEncodePerMessage measures one-frame encode cost per
// fixture into a discarded stream (bufio flushes as it fills: the
// write-coalescing path, not a syscall per message).
func BenchmarkEncodePerMessage(b *testing.B) {
	for _, fix := range fixtures() {
		b.Run(fix.name, func(b *testing.B) {
			enc := codec.NewEncoder(io.Discard)
			env := codec.Envelope{From: 1, Msg: fix.msg}
			n, ok := codec.EncodedSize(fix.msg)
			if !ok {
				b.Fatalf("%T not in wire registry", fix.msg)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(env); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := enc.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(n), "B/frame")
		})
	}
}

// loopReader serves one encoded frame cyclically, forever. Frames are
// stateless, so a single decoder drains it with no per-iteration
// setup.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// BenchmarkDecodePerMessage measures one-frame decode cost per
// fixture from an endless stream of identical frames.
func BenchmarkDecodePerMessage(b *testing.B) {
	for _, fix := range fixtures() {
		b.Run(fix.name, func(b *testing.B) {
			var buf bytes.Buffer
			enc := codec.NewEncoder(&buf)
			if _, err := enc.Encode(codec.Envelope{From: 1, Msg: fix.msg}); err != nil {
				b.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				b.Fatal(err)
			}
			dec := codec.NewDecoder(&loopReader{data: buf.Bytes()})
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "B/frame")
		})
	}
}

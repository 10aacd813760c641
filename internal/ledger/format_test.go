package ledger

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/disk"
	"github.com/bamboo-bft/bamboo/internal/types"
)

func randBytes(rng *rand.Rand, max int) []byte {
	n := rng.Intn(max + 1)
	if n == 0 {
		return nil // what an empty byte field decodes to
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randQC(rng *rand.Rand, view types.View, id types.Hash) *types.QC {
	qc := &types.QC{View: view, BlockID: id}
	for i := rng.Intn(5); i > 0; i-- {
		qc.Signers = append(qc.Signers, types.NodeID(rng.Intn(9)))
		qc.Sigs = append(qc.Sigs, randBytes(rng, 70))
	}
	return qc
}

// randChain builds n linked blocks covering the shapes a record must
// carry: nil and populated certificates, empty payloads, empty
// commands, empty signatures.
func randChain(rng *rand.Rand, n int) (blocks []*types.Block, selfQCs []*types.QC) {
	var parent types.Hash
	for v := types.View(1); v <= types.View(n); v++ {
		b := &types.Block{View: v, Proposer: types.NodeID(rng.Intn(7)), Parent: parent, Sig: randBytes(rng, 70)}
		if rng.Intn(5) > 0 {
			b.QC = randQC(rng, v-1, parent)
		}
		for i := rng.Intn(6); i > 0; i-- {
			b.Payload = append(b.Payload, types.Transaction{
				ID:             types.TxID{Client: rng.Uint64(), Seq: rng.Uint64()},
				SubmitUnixNano: rng.Int63() - rng.Int63(),
				Command:        randBytes(rng, 40),
			})
		}
		var selfQC *types.QC
		if rng.Intn(3) > 0 {
			selfQC = randQC(rng, v, b.ID())
		}
		blocks, selfQCs = append(blocks, b), append(selfQCs, selfQC)
		parent = b.ID()
	}
	return blocks, selfQCs
}

// sameBlock compares every field a record persists.
func sameBlock(got, want *types.Block) bool {
	return got.ID() == want.ID() && got.View == want.View && got.Proposer == want.Proposer &&
		got.Parent == want.Parent && reflect.DeepEqual(got.QC, want.QC) &&
		reflect.DeepEqual(got.Payload, want.Payload) && reflect.DeepEqual(got.Sig, want.Sig)
}

// TestRecordRoundTripProperty: random chains, with a compaction marker
// dropped in at a random height and a reopen in the middle, come back
// field for field through Replay and ReadRange.
func TestRecordRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(30)
		blocks, selfQCs := randChain(rng, n)
		floor, reopenAt := uint64(rng.Intn(n/2)), n/2+rng.Intn(n/2)
		path := filepath.Join(t.TempDir(), "chain.ledger")
		open := Open
		if seed%2 == 0 {
			open = OpenBuffered
		}
		l, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			if err := l.AppendCertified(b, uint64(i+1), selfQCs[i]); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i+1, err)
			}
			if i+1 == reopenAt {
				if err := l.CompactTo(floor); err != nil {
					t.Fatalf("seed %d: compact to %d: %v", seed, floor, err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, err = open(path); err != nil {
					t.Fatalf("seed %d: reopen: %v", seed, err)
				}
				if l.Base() != floor || l.Height() != uint64(reopenAt) {
					t.Fatalf("seed %d: reopened at base %d height %d, want %d and %d", seed, l.Base(), l.Height(), floor, reopenAt)
				}
			}
		}
		next := floor + 1
		err = l.ReplayCertified(func(b *types.Block, h uint64, selfQC *types.QC) error {
			if h != next {
				return fmt.Errorf("height %d, want %d", h, next)
			}
			if !sameBlock(b, blocks[h-1]) || !reflect.DeepEqual(selfQC, selfQCs[h-1]) {
				return fmt.Errorf("height %d came back changed:\n got %+v / %+v\nwant %+v / %+v", h, b, selfQC, blocks[h-1], selfQCs[h-1])
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if next != uint64(n)+1 {
			t.Fatalf("seed %d: replay stopped before height %d of %d", seed, next, n)
		}
		for h := floor + 1; h <= uint64(n); h++ {
			got, err := l.ReadRange(h, h)
			if blocks[h-1].QC == nil {
				// Not servable to a sync requester without its certificate.
				if err == nil {
					t.Fatalf("seed %d: height %d served without a certificate", seed, h)
				}
				continue
			}
			if err != nil || len(got) != 1 || !sameBlock(got[0], blocks[h-1]) {
				t.Fatalf("seed %d: ReadRange(%d) = %+v, %v", seed, h, got, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailAtEveryOffset: cut anywhere inside the last record, the
// file replays and reopens at the record before it and takes the lost
// block again.
func TestTornTailAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chain.ledger")
	blocks, selfQCs := randChain(rand.New(rand.NewSource(7)), 4)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var intact int64
	for i, b := range blocks {
		if i == len(blocks)-1 {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			intact = fi.Size()
		}
		if err := l.AppendCertified(b, uint64(i+1), selfQCs[i]); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.ledger")
	for cut := int(intact); cut < len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		replayed := 0
		if err := Replay(cutPath, func(*types.Block, uint64) error { replayed++; return nil }); err != nil || replayed != 3 {
			t.Fatalf("cut=%d: replayed %d records, err %v; want 3 and no error", cut, replayed, err)
		}
		l, err := Open(cutPath)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if l.Height() != 3 {
			t.Fatalf("cut=%d: recovered height %d, want 3", cut, l.Height())
		}
		if err := l.AppendCertified(blocks[3], 4, selfQCs[3]); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		l.Close()
		if data, err := os.ReadFile(cutPath); err != nil || string(data) != string(full) {
			t.Fatalf("cut=%d: repaired file differs from the uncut one (err %v)", cut, err)
		}
	}
}

// TestUnknownVersionIsRefused: a record of another format version
// fails Open and Replay with an error that says so.
func TestUnknownVersionIsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ledger")
	frame, err := disk.AppendFrame(nil, 2+8, maxRecord, func(p []byte) []byte {
		return binary.LittleEndian.AppendUint64(append(p, version+1, kindMarker), 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, errVersion) || strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open = %v, want an unsupported-version error", err)
	}
	if err := Replay(path, func(*types.Block, uint64) error { return nil }); !errors.Is(err, errVersion) || strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Replay = %v, want an unsupported-version error", err)
	}
}

// TestGoldenRecord pins the on-disk bytes of one block record, so a
// re-layout is a deliberate version bump and not a silent
// incompatibility.
func TestGoldenRecord(t *testing.T) {
	qc := &types.QC{View: 8, BlockID: types.Hash{0xab, 1, 2, 3}, Signers: []types.NodeID{1, 2, 3},
		Sigs: [][]byte{{0x11, 0x12}, {0x21}, {0x31, 0x32, 0x33}}}
	b := &types.Block{View: 9, Proposer: 2, Parent: qc.BlockID, QC: qc, Sig: []byte{0xaa, 0xbb},
		Payload: []types.Transaction{
			{ID: types.TxID{Client: 4, Seq: 2}, Command: []byte("put k v"), SubmitUnixNano: 12345},
			{ID: types.TxID{Client: 4, Seq: 3}, SubmitUnixNano: -7},
		}}
	frame, err := appendBlockRecord(nil, b, 6, &types.QC{View: 9, BlockID: b.ID(), Signers: []types.NodeID{4}, Sigs: [][]byte{{0x41}}})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "codec", "testdata", "golden_disk.txt"))
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("ledger-record %s\n", hex.EncodeToString(frame))
	if !strings.Contains(string(golden), line) {
		t.Errorf("on-disk bytes changed; if intended, bump the format version and put this line in golden_disk.txt:\n%s", line)
	}
}

// FuzzLedgerRecord feeds arbitrary bodies to the record decoder: it
// must reject or decode, never panic, and what it decodes can hold no
// more bytes than the body supplied (counts and lengths in the body
// are never trusted for allocation).
func FuzzLedgerRecord(f *testing.F) {
	blocks, selfQCs := randChain(rand.New(rand.NewSource(3)), 6)
	for i, b := range blocks {
		frame, err := appendBlockRecord(nil, b, uint64(i+1), selfQCs[i])
		if err != nil {
			f.Fatal(err)
		}
		_, n := binary.Uvarint(frame)
		f.Add(frame[n+4:]) // the body, past length and checksum
	}
	f.Add(markerFrame(9)[1+4:])
	f.Add([]byte{version, kindBlock, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := decodeRecord(body)
		if err != nil || rec.block == nil {
			return
		}
		held := len(rec.block.Sig) + 28*len(rec.block.Payload)
		for _, tx := range rec.block.Payload {
			held += len(tx.Command)
		}
		for _, qc := range []*types.QC{rec.block.QC, rec.selfQC} {
			if qc == nil {
				continue
			}
			held += 4*len(qc.Signers) + 4*len(qc.Sigs)
			for _, s := range qc.Sigs {
				held += len(s)
			}
		}
		if held > len(body) {
			t.Fatalf("decoded %d bytes of fields from a %d-byte body", held, len(body))
		}
		rec.block.ID() // must not panic on whatever decoded
	})
}

// BenchmarkAppendCertified is the commit path's ledger write: one
// block per call, buffered (the in-process cluster's mode) and
// write-through (bamboo-server's, and the TCP benchmark workload's).
func BenchmarkAppendCertified(b *testing.B) {
	for _, bc := range []struct {
		name     string
		open     func(string) (*Ledger, error)
		txs, cmd int
	}{
		{"buffered/300x0B", OpenBuffered, 300, 0},
		{"writethrough/250x128B", Open, 250, 128},
	} {
		b.Run(bc.name, func(b *testing.B) {
			payload := make([]types.Transaction, bc.txs)
			for i := range payload {
				payload[i] = types.Transaction{ID: types.TxID{Client: 1, Seq: uint64(i)}, Command: make([]byte, bc.cmd)}
			}
			qc := &types.QC{View: 1, Signers: []types.NodeID{1, 2, 3}, Sigs: [][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}}
			blk := &types.Block{View: 2, Proposer: 1, QC: qc, Payload: payload, Sig: make([]byte, 32)}
			blk.ID()
			l, err := bc.open(filepath.Join(b.TempDir(), "bench.ledger"))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.AppendCertified(blk, uint64(i+1), qc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// stream draws n commands from a fresh generator of the spec.
func stream(t *testing.T, s Spec, payload int, seed int64, n int) [][]byte {
	t.Helper()
	g, err := s.New(payload, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// TestDeterminism is the harness's reproducibility guarantee: equal
// seeds yield byte-identical command streams for every workload kind,
// including the kv mix's zipfian key draws; different seeds diverge.
func TestDeterminism(t *testing.T) {
	specs := []Spec{
		{Kind: KindNoop},
		{Kind: KindKV},
		{Kind: KindKV, Keys: 64, WriteRatio: 0.9, ZipfS: 1.5, ValueSize: 16},
		{Kind: KindKV, Keys: 64, WriteRatio: 0.5, HotKeys: 8, HotFraction: 0.6},
		{Kind: KindKVBank},
		{Kind: KindKVBank, Accounts: 8, InitialBalance: 10, MaxTransfer: 3},
	}
	for _, s := range specs {
		name := s.Kind
		a := stream(t, s, 32, 42, 500)
		b := stream(t, s, 32, 42, 500)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: command %d differs between equal-seed streams", name, i)
			}
		}
		if s.Kind == KindNoop {
			continue // seed-independent by design
		}
		c := stream(t, s, 32, 43, 500)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: different seeds produced identical streams", name)
		}
	}
}

// TestKVMixShape checks the kv generator emits decodable reads and
// writes near the declared ratio, with keys inside the key space.
func TestKVMixShape(t *testing.T) {
	const n = 2000
	cmds := stream(t, Spec{Kind: KindKV, Keys: 128, WriteRatio: 0.25}, 0, 7, n)
	var writes, reads int
	for _, cmd := range cmds {
		key, _, op, ok := kvstore.Decode(cmd)
		if !ok {
			t.Fatalf("undecodable kv command %x", cmd)
		}
		switch op {
		case kvstore.OpSet:
			writes++
		case kvstore.OpGet:
			reads++
		default:
			t.Fatalf("unexpected op %d", op)
		}
		if len(key) == 0 {
			t.Fatal("empty key")
		}
	}
	ratio := float64(writes) / float64(n)
	if ratio < 0.18 || ratio > 0.33 {
		t.Fatalf("write ratio %.2f far from declared 0.25 (%d writes, %d reads)", ratio, writes, reads)
	}

	// WriteRatio 0 declares a read-only mix: every command an OpGet.
	for i, cmd := range stream(t, Spec{Kind: KindKV, WriteRatio: 0}, 0, 7, 200) {
		if _, _, op, ok := kvstore.Decode(cmd); !ok || op != kvstore.OpGet {
			t.Fatalf("read-only mix emitted op %d at %d", op, i)
		}
	}
}

// TestKVZipfSkew checks key popularity is actually skewed: the most
// popular key must dominate a uniform draw's share.
func TestKVZipfSkew(t *testing.T) {
	const n = 4000
	cmds := stream(t, Spec{Kind: KindKV, Keys: 1024, WriteRatio: 1, ZipfS: 1.3}, 0, 3, n)
	counts := map[string]int{}
	for _, cmd := range cmds {
		key, _, _, ok := kvstore.Decode(cmd)
		if !ok {
			t.Fatal("undecodable command")
		}
		counts[key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Uniform draws would put ~n/1024 ≈ 4 on each key; zipf must
	// concentrate far more on the hottest key.
	if max < n/50 {
		t.Fatalf("hottest key drew only %d of %d — not zipfian", max, n)
	}
}

// TestKVHotKeyDial: the contention dial confines the declared
// fraction of traffic to the hot set. At HotFraction 1 every command
// targets a hot key, and — unlike the zipfian fallback, which piles
// onto key 0 — the hot draws are uniform across the set, so the dial
// shapes contention rather than just renaming the zipf head.
func TestKVHotKeyDial(t *testing.T) {
	const n = 4000
	cmds := stream(t, Spec{Kind: KindKV, Keys: 1024, WriteRatio: 0.5,
		HotKeys: 4, HotFraction: 1}, 0, 11, n)
	counts := map[string]int{}
	for _, cmd := range cmds {
		key, _, _, ok := kvstore.Decode(cmd)
		if !ok {
			t.Fatal("undecodable command")
		}
		counts[key]++
	}
	if len(counts) != 4 {
		t.Fatalf("HotFraction 1 touched %d keys, want exactly the 4 hot ones", len(counts))
	}
	for key, c := range counts {
		// Uniform would be 25%; leave wide slack against rng noise
		// while still ruling out the zipfian head-heavy shape.
		if c < n/10 || c > n/2 {
			t.Fatalf("hot key %s drew %d of %d — not uniform across the hot set", key, c, n)
		}
	}

	// A partial fraction mixes: hot keys dominate but the cold tail
	// still appears.
	cmds = stream(t, Spec{Kind: KindKV, Keys: 1024, WriteRatio: 0.5,
		HotKeys: 4, HotFraction: 0.5, ZipfS: 1.01}, 0, 11, n)
	cold := 0
	for _, cmd := range cmds {
		key, _, _, ok := kvstore.Decode(cmd)
		if !ok {
			t.Fatal("undecodable command")
		}
		if key >= "key00000004" {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("HotFraction 0.5 left no cold traffic")
	}
	if cold > n*3/4 {
		t.Fatalf("cold traffic %d of %d — hot fraction not applied", cold, n)
	}
}

// TestKVBankConservation applies kvbank streams to a store — in
// generation order, shuffled, and as a thinned subset (modelling lost
// and reordered commits under faults) — and audits conservation of
// money, the workload's core invariant.
func TestKVBankConservation(t *testing.T) {
	const accounts, initial = 16, uint64(100)
	spec := Spec{Kind: KindKVBank, Accounts: accounts, InitialBalance: initial, MaxTransfer: 30}
	audit := func(name string, cmds [][]byte) {
		store := kvstore.New()
		txs := make([]types.Transaction, len(cmds))
		for i, cmd := range cmds {
			txs[i] = types.Transaction{ID: types.TxID{Client: 1, Seq: uint64(i + 1)}, Command: cmd}
		}
		store.Apply(txs)
		var total uint64
		for i := 0; i < accounts; i++ {
			total += store.BalanceOr(Account(i), initial)
		}
		if want := uint64(accounts) * initial; total != want {
			t.Fatalf("%s: total balance %d, want %d — money not conserved", name, total, want)
		}
	}
	cmds := stream(t, spec, 0, 11, 1000)
	audit("in order", cmds)

	shuffled := make([][]byte, len(cmds))
	copy(shuffled, cmds)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	audit("shuffled", shuffled)

	var thinned [][]byte
	for i, cmd := range cmds {
		if i%3 != 0 { // every third transfer "lost"
			thinned = append(thinned, cmd)
		}
	}
	audit("thinned", thinned)
}

// TestSpecValidate rejects malformed specs.
// TestHotKeySpecValidate: the contention dial's malformed shapes fail
// loudly instead of running a quietly wrong experiment.
func TestHotKeySpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: KindKV, HotFraction: 1.5, HotKeys: 4},
		{Kind: KindKV, HotFraction: -0.1, HotKeys: 4},
		{Kind: KindKV, HotFraction: 0.5}, // fraction without a hot set
		{Kind: KindKV, HotKeys: -1},
		{Kind: KindKV, Keys: 8, HotKeys: 9}, // hot set wider than the space
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad hot-key spec %d accepted: %+v", i, s)
		}
	}
	good := Spec{Kind: KindKV, Keys: 64, HotKeys: 64, HotFraction: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid hot-key spec rejected: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: "stream"},
		{Kind: KindKV, WriteRatio: 1.5},
		{Kind: KindKV, WriteRatio: -0.1},
		{Kind: KindKV, ZipfS: 0.9},
		{Kind: KindKV, Keys: -1},
		{Kind: KindKVBank, Accounts: -2},
		{Kind: KindKVBank, Accounts: 1},
		{Kind: KindKVBank, MaxTransfer: math.MaxUint64},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	if _, err := (Spec{Kind: KindKV}).New(0, 1); err != nil {
		t.Errorf("default kv spec rejected: %v", err)
	}
}

// TestPaddedKeysMatchFmt: the hand-built account and kv keys are
// byte-identical to the fmt formats they replace, over-width values
// included.
func TestPaddedKeysMatchFmt(t *testing.T) {
	for _, v := range []int{0, 7, 9999, 10000, 99999999, 100000000, -7, -12345} {
		if got, want := Account(v), fmt.Sprintf("acct%04d", v); got != want {
			t.Errorf("Account(%d) = %q, want %q", v, got, want)
		}
		if got, want := paddedKey("key", int64(v), 8), fmt.Sprintf("key%08d", v); got != want {
			t.Errorf("kv key %d = %q, want %q", v, got, want)
		}
	}
}

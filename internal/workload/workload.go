// Package workload defines the pluggable transaction generators of
// the experiment harness. A workload is declared as data (Spec) and
// instantiated per client with a seed; equal seeds yield identical
// command streams — including every zipfian key draw — so experiment
// runs are reproducible end to end.
//
// Three built-ins cover the paper's evaluation space: the padded
// no-op of the throughput benchmarks, a key-value read/write mix with
// zipfian key popularity, and the kvbank transfer workload whose
// balance moves execute inside the replicated state machine.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"github.com/bamboo-bft/bamboo/internal/kvstore"
)

// Workload kinds accepted by Spec.Kind.
const (
	KindNoop   = "noop"
	KindKV     = "kv"
	KindKVBank = "kvbank"
)

// Generator produces the command bytes of successive benchmark
// transactions. Implementations are safe for concurrent use (closed-
// loop workers share one generator).
type Generator interface {
	// Name identifies the workload kind.
	Name() string
	// Next returns the next command in the deterministic stream.
	Next() []byte
}

// Spec declares a workload as data. The zero value is the padded
// no-op workload; kind-specific size fields apply defaults when zero.
// WriteRatio is the exception: its zero value declares a read-only kv
// mix, so declare the ratio explicitly for a mixed workload.
type Spec struct {
	// Kind selects the generator: "noop" (default), "kv", "kvbank".
	Kind string `json:"kind,omitempty"`

	// Keys is the kv key-space size (default 1024).
	Keys int `json:"keys,omitempty"`
	// WriteRatio is the kv fraction of writes in [0,1]; 0 declares a
	// read-only mix (every command an ordered OpGet).
	WriteRatio float64 `json:"writeRatio,omitempty"`
	// ZipfS is the zipfian skew parameter s > 1 of kv key popularity;
	// 0 applies the default 1.1.
	ZipfS float64 `json:"zipfS,omitempty"`
	// ValueSize is the kv written value size in bytes (default 64).
	ValueSize int `json:"valueSize,omitempty"`
	// HotKeys and HotFraction dial contention into the kv mix: each
	// command targets one of the first HotKeys keys (uniformly) with
	// probability HotFraction, and falls back to the zipfian draw
	// over the whole key space otherwise. HotFraction 0 disables the
	// dial; 1 confines the workload to the hot set entirely. The hot
	// draws come from the same seeded stream as everything else, so
	// equal seeds still yield byte-identical command sequences.
	HotKeys     int     `json:"hotKeys,omitempty"`
	HotFraction float64 `json:"hotFraction,omitempty"`

	// Accounts is the kvbank account count (default 64).
	Accounts int `json:"accounts,omitempty"`
	// InitialBalance seeds every kvbank account (default 1000).
	InitialBalance uint64 `json:"initialBalance,omitempty"`
	// MaxTransfer bounds a single kvbank transfer (default 50).
	MaxTransfer uint64 `json:"maxTransfer,omitempty"`
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	switch s.Kind {
	case "", KindNoop, KindKV, KindKVBank:
	default:
		return fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
	if s.WriteRatio < 0 || s.WriteRatio > 1 {
		return fmt.Errorf("workload: write ratio %v outside [0,1]", s.WriteRatio)
	}
	if s.ZipfS != 0 && s.ZipfS <= 1 {
		return fmt.Errorf("workload: zipf s must exceed 1, have %v", s.ZipfS)
	}
	if s.Keys < 0 || s.ValueSize < 0 || s.Accounts < 0 || s.HotKeys < 0 {
		return fmt.Errorf("workload: negative size parameter")
	}
	if s.HotFraction < 0 || s.HotFraction > 1 {
		return fmt.Errorf("workload: hot fraction %v outside [0,1]", s.HotFraction)
	}
	if s.HotFraction > 0 && s.HotKeys == 0 {
		return fmt.Errorf("workload: hot fraction %v with no hot keys", s.HotFraction)
	}
	if s.Keys > 0 && s.HotKeys > s.Keys {
		return fmt.Errorf("workload: %d hot keys exceed the %d-key space", s.HotKeys, s.Keys)
	}
	if s.Kind == KindKVBank && s.Accounts == 1 {
		return fmt.Errorf("workload: kvbank needs at least 2 accounts")
	}
	if s.MaxTransfer > math.MaxInt64 {
		return fmt.Errorf("workload: max transfer %d overflows", s.MaxTransfer)
	}
	return nil
}

// New instantiates the declared generator. payload is the Table I
// "psize" pad applied to every command; seed drives all randomness.
func (s Spec) New(payload int, seed int64) (Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "", KindNoop:
		return NewNoop(payload), nil
	case KindKV:
		return NewKV(s, payload, seed), nil
	case KindKVBank:
		return NewKVBank(s, payload, seed), nil
	}
	return nil, fmt.Errorf("workload: unknown kind %q", s.Kind)
}

// Stores reports whether the workload needs a kvstore execution layer
// attached to every replica to do its work.
func (s Spec) Stores() bool { return s.Kind == KindKV || s.Kind == KindKVBank }

// noop emits identical padded no-op commands.
type noop struct {
	template []byte
}

// NewNoop returns the padded no-op generator (the default benchmark
// transaction).
func NewNoop(payload int) Generator {
	return &noop{template: kvstore.EncodeNoop(payload)}
}

func (n *noop) Name() string { return KindNoop }

func (n *noop) Next() []byte {
	// Commands are immutable once submitted; one shared buffer serves
	// every transaction without per-call allocation.
	return n.template
}

// kv emits a read/write mix over a zipfian-popular key space, with an
// optional hot set that concentrates a configured fraction of the
// commands onto the first hotKeys keys — the contention dial.
type kv struct {
	mu      sync.Mutex
	rng     *rand.Rand
	zipf    *rand.Zipf
	keys    int
	writes  float64
	valSize int
	payload int
	hotKeys int
	hotFrac float64
}

// NewKV builds the key-value mix generator from the spec.
func NewKV(s Spec, payload int, seed int64) Generator {
	keys := s.Keys
	if keys == 0 {
		keys = 1024
	}
	zs := s.ZipfS
	if zs == 0 {
		zs = 1.1
	}
	valSize := s.ValueSize
	if valSize == 0 {
		valSize = 64
	}
	hotKeys := s.HotKeys
	if hotKeys > keys {
		hotKeys = keys
	}
	rng := rand.New(rand.NewSource(seed))
	return &kv{
		rng:     rng,
		zipf:    rand.NewZipf(rng, zs, 1, uint64(keys-1)),
		keys:    keys,
		writes:  s.WriteRatio,
		valSize: valSize,
		payload: payload,
		hotKeys: hotKeys,
		hotFrac: s.HotFraction,
	}
}

func (k *kv) Name() string { return KindKV }

func (k *kv) Next() []byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	var idx uint64
	if k.hotFrac > 0 && k.rng.Float64() < k.hotFrac {
		idx = uint64(k.rng.Intn(k.hotKeys))
	} else {
		idx = k.zipf.Uint64()
	}
	key := paddedKey("key", int64(idx), 8)
	if k.rng.Float64() >= k.writes {
		return kvstore.EncodeGet(key, k.payload)
	}
	val := make([]byte, k.valSize)
	k.rng.Read(val)
	return kvstore.EncodeSet(key, val, k.payload)
}

// kvbank emits the paper's payments workload: every command is a
// transfer between two distinct accounts, executed atomically by the
// kvstore state machine. There is no seeding phase to lose or
// reorder — transfers carry the initial balance and accounts
// materialize lazily (untouched accounts count at InitialBalance), so
// with insufficient funds applying as no-ops the total balance is
// conserved under any subset and ordering of committed transfers.
type kvbank struct {
	mu       sync.Mutex
	rng      *rand.Rand
	accounts int
	initial  uint64
	maxXfer  uint64
	payload  int
}

// NewKVBank builds the transfer generator from the spec.
func NewKVBank(s Spec, payload int, seed int64) Generator {
	accounts := s.Accounts
	if accounts == 0 {
		accounts = 64
	}
	initial := s.InitialBalance
	if initial == 0 {
		initial = 1000
	}
	maxXfer := s.MaxTransfer
	if maxXfer == 0 {
		maxXfer = 50
	}
	return &kvbank{
		rng:      rand.New(rand.NewSource(seed)),
		accounts: accounts,
		initial:  initial,
		maxXfer:  maxXfer,
		payload:  payload,
	}
}

func (b *kvbank) Name() string { return KindKVBank }

// Account returns the store key of account i.
func Account(i int) string { return paddedKey("acct", int64(i), 4) }

// paddedKey returns prefix followed by v in decimal, zero-padded to
// width characters — byte-identical to fmt.Sprintf(prefix+"%0<width>d",
// v), including the sign of a negative v, without fmt's per-call cost
// on the load generator's hot path.
func paddedKey(prefix string, v int64, width int) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
		width--
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

func (b *kvbank) Next() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	from := b.rng.Intn(b.accounts)
	to := b.rng.Intn(b.accounts - 1)
	if to >= from {
		to++
	}
	amount := uint64(b.rng.Int63n(int64(b.maxXfer))) + 1
	return kvstore.EncodeTransfer(Account(from), Account(to), amount, b.initial, b.payload)
}

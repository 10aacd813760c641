package main

import (
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// spec is one named workload: a cluster shape, a transaction mix and
// a load shape, all fixed in absolute terms. Nothing is calibrated at
// run time, so two commits always face the same offered load.
type spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	Why string

	N       int
	Crypto  string
	Payload int
	Backend string
	Mix     workload.Spec
	// Unbuffered opens the replicas' ledgers write-through.
	Unbuffered bool

	// InFlight > 0 declares a closed loop with that many goroutines
	// each keeping one SubmitAndWait outstanding; otherwise Rate
	// declares an open loop in arrivals per second.
	InFlight int
	Rate     float64

	// Warmup is how long the load runs before the window opens.
	Warmup time.Duration

	// Crash names a replica silenced after the first committed reply
	// and before warm-up, down for the whole window.
	Crash types.NodeID
	// Fanout makes the client send every request to every replica.
	Fanout bool

	// SLOMs is the p99 limit slo_ok is judged against (0: none).
	SLOMs float64
}

const bankAccounts, bankInitial = 512, 1000

// workloads lists the benchmark's workloads in run order.
var workloads = []spec{
	{
		Name: "sat-noop",
		Why:  "saturating closed loop on the config of every committed artifact (switch, n=4, hmac, empty noop tx): core loop, mempool, forest, quorum and switch do the work; crypto, kvstore, codec idle",
		N:    4, Crypto: "hmac", Backend: cluster.BackendSwitch,
		Mix:      workload.Spec{Kind: workload.KindNoop},
		InFlight: 2048, Warmup: 3 * time.Second,
	},
	{
		Name: "rate-kv-ed25519",
		Why:  "latency at a fixed 8000 tx/s with real signatures and a 6-signature QC (n=8, 128 B zipfian kv, 10% writes): crypto is a large share of p50 here and idle in sat-noop; kvstore is read-heavy",
		N:    8, Crypto: "ed25519", Payload: 128, Backend: cluster.BackendSwitch,
		Mix:  workload.Spec{Kind: workload.KindKV, Keys: 4096, WriteRatio: 0.10, ZipfS: 1.1},
		Rate: 8000, Warmup: 3 * time.Second, SLOMs: 100,
	},
	{
		Name: "sat-bank-tcp",
		Why:  "saturating closed loop over loopback TCP, write-through ledgers, kvbank transfers: the only workload where codec encodes, sockets carry frames, ledgers write per commit, kvstore is read-modify-write",
		N:    4, Crypto: "hmac", Payload: 128, Backend: cluster.BackendTCP,
		Mix: workload.Spec{Kind: workload.KindKVBank, Accounts: bankAccounts,
			InitialBalance: bankInitial},
		Unbuffered: true, InFlight: 1024, Warmup: 3 * time.Second,
	},
	{
		Name: "crash1-rate",
		Why:  "timeout-driven regime: n=7, replica 1 down all window, 3000 tx/s open loop fanned out to every replica; pacemaker, TC formation and re-proposal set every number, the fault-free hot path barely matters",
		N:    7, Crypto: "hmac", Backend: cluster.BackendSwitch,
		Mix:  workload.Spec{Kind: workload.KindNoop},
		Rate: 3000, Crash: 1, Fanout: true, SLOMs: 1000,
		// Round-robin HotStuff loses every block of the leader rotating
		// just before the dead replica (its votes go to the dead one),
		// and with them ~2% of the requests, until that leader's pool
		// front holds a full block of such orphans and it proposes
		// nothing else (probed: the last request is lost by second 9
		// and times out by second 11). The window opens after that, on
		// the steady state, where no operation fails.
		Warmup: 15 * time.Second,
	},
}

// config returns the workload's run configuration: HotStuff, 400-tx
// blocks, all pipeline flags off, on the single-machine substrate the
// repo's committed artifacts use (200µs ± 50µs links, 1 Gbps modelled
// NIC, 100 ms view timer, 2^17-tx mempool) — the values of
// internal/bench's substrate(), copied so a change there cannot move
// the benchmark silently.
func (s spec) config() config.Config {
	cfg := config.Default()
	cfg.N = s.N
	cfg.CryptoScheme = s.Crypto
	cfg.PayloadSize = s.Payload
	cfg.Delay = 200 * time.Microsecond
	cfg.DelayStd = 50 * time.Microsecond
	cfg.Bandwidth = 1.25e8
	cfg.Timeout = 100 * time.Millisecond
	cfg.MaxNetworkDelay = 5 * time.Millisecond
	cfg.MemSize = 1 << 17
	// The program under test gets a fixed key seed; -seed drives only
	// the generated transactions and the arrival schedule.
	cfg.Seed = 1
	return cfg
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

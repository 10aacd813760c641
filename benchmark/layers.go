package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/forest"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/mempool"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/quorum"
	"github.com/bamboo-bft/bamboo/internal/trace"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// perLayer lists the per-layer metrics a traced run reports, layer =
// package under internal/. The first group is read from the program's
// public counters as deltas across the window (every run prints them);
// the second comes from replaying the observer's committed blocks
// through each layer's public functions after the window.
var perLayer = []metricDef{
	{Name: "network.msgs_per_tx", Unit: "count", Better: "lower"},
	{Name: "network.bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "core.tx_per_block", Unit: "count", Better: "higher"},
	{Name: "core.blocks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.views_per_commit", Unit: "count", Better: "lower"},
	{Name: "pacemaker.timeouts_per_s", Unit: "1/s", Better: "lower"},
	{Name: "mempool.rejections", Unit: "count", Better: "lower"},
	{Name: "wal.syncs_per_block", Unit: "count", Better: "lower"},
	{Name: "wal.sync_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_mean_ms.verify", Unit: "ms", Better: "lower"},
	{Name: "trace.stage_mean_ms.vote", Unit: "ms", Better: "lower"},
	{Name: "trace.stage_mean_ms.qc", Unit: "ms", Better: "lower"},
	{Name: "trace.stage_mean_ms.commit", Unit: "ms", Better: "lower"},
	{Name: "trace.stage_mean_ms.execute", Unit: "ms", Better: "lower"},

	{Name: "codec.encode_us_per_block", Unit: "us", Better: "lower"},
	{Name: "codec.decode_us_per_block", Unit: "us", Better: "lower"},
	{Name: "crypto.sign_us", Unit: "us", Better: "lower"},
	{Name: "crypto.verify_us", Unit: "us", Better: "lower"},
	{Name: "crypto.block_bill_us", Unit: "us", Better: "lower"},
	{Name: "quorum.qc_form_us", Unit: "us", Better: "lower"},
	{Name: "forest.add_commit_us_per_block", Unit: "us", Better: "lower"},
	{Name: "mempool.cycle_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "kvstore.apply_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "ledger.append_us_per_block", Unit: "us", Better: "lower"},
	{Name: "wal.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "network.hop_us", Unit: "us", Better: "lower"},
	{Name: "unattributed_share", Unit: "ratio", Better: "lower"},
}

// maxReplay bounds the replayed sample: the last maxReplay blocks the
// observer committed inside the window. maxFsync bounds the fsync'd
// WAL appends among them, the one call that costs milliseconds.
const (
	maxReplay = 256
	maxFsync  = 32
)

// span is one timed call: its name, when it ran, the span that caused
// it (index into the tracer's spans, -1 for a block's own span) and
// the block height every span of one block shares.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	height     uint64
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, height uint64) int {
	t.spans = append(t.spans, span{name: name, parent: parent, height: height, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

// call records one span around one call into a layer.
func (t *tracer) call(name string, parent int, height uint64, fn func() error) error {
	i := t.begin(name, parent, height)
	err := fn()
	t.end(i)
	if err != nil {
		return fmt.Errorf("%s at height %d: %w", name, height, err)
	}
	return nil
}

// selfTimes returns, per span name, the summed self time (a span's
// duration minus the part its child spans cover) and the span count.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - covered[i]
		count[s.name]++
	}
	return self, count
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): block spans on lane 0, the layer
// calls they caused on lane 1.
func (t *tracer) writeChrome(path string) error {
	events := make([]trace.ChromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		ev := trace.ChromeEvent{Name: s.name, Ph: "X", Pid: 1,
			Ts: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(),
			Cat: strings.SplitN(s.name, ".", 2)[0], Args: map[string]any{"height": s.height}}
		if s.parent >= 0 {
			ev.Tid = 1
			ev.Args["parent"] = t.spans[s.parent].name
		}
		events = append(events, ev)
	}
	return writeJSON(path, events)
}

// hopPair is two connected endpoints of the workload's transport.
func hopPair(backend string) (a, b network.Transport, closeAll func(), err error) {
	if backend != cluster.BackendTCP {
		sw := network.NewSwitch(nil) // zero delay, no loss
		ea, err := sw.Join(1)
		if err != nil {
			return nil, nil, nil, err
		}
		eb, err := sw.Join(2)
		if err != nil {
			return nil, nil, nil, err
		}
		return ea, eb, sw.Close, nil
	}
	ta, err := network.NewTCP(1, map[types.NodeID]string{1: "127.0.0.1:0", 2: ""})
	if err != nil {
		return nil, nil, nil, err
	}
	tb, err := network.NewTCP(2, map[types.NodeID]string{1: ta.Addr(), 2: "127.0.0.1:0"})
	if err != nil {
		_ = ta.Close()
		return nil, nil, nil, err
	}
	ta.SetPeerAddr(2, tb.Addr())
	return ta, tb, func() { _ = ta.Close(); _ = tb.Close() }, nil
}

// hop sends msg from a and waits for it at b.
func hop(a, b network.Transport, msg any) error {
	a.Send(b.Self(), msg)
	select {
	case <-b.Inbox():
		return nil
	case <-time.After(5 * time.Second):
		return errors.New("message not delivered within 5s")
	}
}

// replayLayers reads the observer's committed chain back from its
// ledger and pushes the last blocks of the window [h0+1, h1] through
// each layer's public functions, one span per call. The blocks are
// the real ones the run produced — real payloads, real certificates —
// so a layer's cost is measured on the workload's own data. It fills
// the replay half of res.Layers and writes the Chrome trace file.
func replayLayers(w spec, o runOpts, res *result, ledgerPath string, h0, h1 uint64, scratch string) error {
	cfg := w.config()
	// One block before the sample seeds the forest; one after supplies
	// the last sampled block's own certificate.
	lo := h0
	if h1-h0 > maxReplay+1 {
		lo = h1 - maxReplay - 1
	}
	var blocks []*types.Block
	err := ledger.Replay(ledgerPath, func(b *types.Block, height uint64) error {
		if height >= lo && height <= h1+1 {
			blocks = append(blocks, b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(blocks) < 3 {
		return fmt.Errorf("only %d blocks between heights %d and %d to replay", len(blocks), lo, h1+1)
	}

	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		return err
	}
	q := config.Quorum(cfg.N)
	var wire bytes.Buffer
	enc, dec := codec.NewEncoder(&wire), codec.NewDecoder(&wire)
	votes := quorum.NewVotes(q)
	fst := forest.New(cfg.KeepWindow())
	fst.ResetTo(blocks[0], blocks[1].QC, lo)
	pool := mempool.New(cfg.MemSize)
	store := kvstore.New()
	openLedger := ledger.OpenBuffered
	if w.Unbuffered {
		openLedger = ledger.Open
	}
	led, err := openLedger(filepath.Join(scratch, "replay.ledger"))
	if err != nil {
		return err
	}
	defer led.Close()
	walNoSync, err := wal.OpenNoSync(filepath.Join(scratch, "replay-nosync.wal"))
	if err != nil {
		return err
	}
	defer walNoSync.Close()
	walSync, err := wal.Open(filepath.Join(scratch, "replay-fsync.wal"))
	if err != nil {
		return err
	}
	defer walSync.Close()
	netA, netB, closeNet, err := hopPair(w.Backend)
	if err != nil {
		return err
	}
	defer closeNet()
	if err := hop(netA, netB, types.VoteMsg{Vote: &types.Vote{}}); err != nil { // dials, on tcp
		return fmt.Errorf("network.hop warm-up: %w", err)
	}

	tr := &tracer{epoch: time.Now()}
	var txs int
	for i := 1; i < len(blocks)-1; i++ {
		b, selfQC, height := blocks[i], blocks[i+1].QC, lo+uint64(i)
		if selfQC == nil || selfQC.BlockID != b.ID() {
			return fmt.Errorf("height %d: successor does not certify it", height)
		}
		if err := crypto.VerifyQC(scheme, selfQC, q); err != nil {
			return fmt.Errorf("height %d: committed certificate does not verify: %w", height, err)
		}
		txs += len(b.Payload)
		digest := types.SigningDigest(b.View, b.ID())
		proposal := types.ProposalMsg{Block: b}
		vote := &types.Vote{View: b.View, BlockID: b.ID(), Voter: b.Proposer}
		safety := wal.Record{CurView: b.View, LastVoted: b.View, HighQC: b.QC}
		ids := make([]types.TxID, len(b.Payload))
		for j := range b.Payload {
			ids[j] = b.Payload[j].ID
		}

		blk := tr.begin("block", -1, height)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"crypto.sign", func() (err error) {
				vote.Sig, err = scheme.Sign(vote.Voter, digest)
				return err
			}},
			{"crypto.verify", func() error { return scheme.Verify(vote.Voter, digest, vote.Sig) }},
			{"codec.encode", func() error {
				if _, err := enc.Encode(codec.Envelope{From: b.Proposer, Msg: proposal}); err != nil {
					return err
				}
				if _, err := enc.Encode(codec.Envelope{From: vote.Voter, Msg: types.VoteMsg{Vote: vote}}); err != nil {
					return err
				}
				return enc.Flush()
			}},
			{"codec.decode", func() error {
				if _, err := dec.Decode(); err != nil {
					return err
				}
				_, err := dec.Decode()
				return err
			}},
			{"quorum.qc_form", func() error {
				for id := 1; id <= q; id++ {
					v := *vote
					v.Voter = types.NodeID(id)
					if _, formed := votes.Add(&v); formed != (id == q) {
						return fmt.Errorf("certificate formed=%v after %d of %d votes", formed, id, q)
					}
				}
				return nil
			}},
			{"forest.add_commit", func() error {
				if _, err := fst.Add(b); err != nil {
					return err
				}
				if !fst.Certify(selfQC) {
					return errors.New("certificate names an unknown block")
				}
				_, err := fst.Commit(b.ID())
				return err
			}},
			{"mempool.cycle", func() error {
				for j := range b.Payload {
					if err := pool.Add(b.Payload[j]); err != nil {
						return err
					}
				}
				if got := len(pool.Batch(len(ids))); got != len(ids) {
					return fmt.Errorf("batched %d of %d", got, len(ids))
				}
				pool.Remove(ids)
				return nil
			}},
			{"kvstore.apply", func() error { store.Apply(b.Payload); return nil }},
			{"ledger.append", func() error { return led.AppendCertified(b, uint64(i), selfQC) }},
			{"wal.append_nosync", func() error { return walNoSync.Append(safety) }},
			{"wal.append_fsync", func() error { return walSync.Append(safety) }},
			{"network.hop", func() error { return hop(netA, netB, proposal) }},
		}
		for _, s := range steps {
			if s.name == "wal.append_fsync" && i > maxFsync {
				continue
			}
			if err := tr.call(s.name, blk, height, s.fn); err != nil {
				return err
			}
		}
		tr.end(blk)
		votes.Prune(b.View)
	}
	// The ledger's flush to the file is part of what an append costs,
	// wherever the buffering puts it.
	if err := tr.call("ledger.sync", -1, h1, led.Sync); err != nil {
		return err
	}

	self, count := tr.selfTimes()
	us := func(name string) float64 { return float64(self[name]) / 1e3 }
	per := func(name string) float64 { return ratio(us(name), float64(count[name])) }
	nBlocks := float64(count["block"])
	n, fq := float64(cfg.N), float64(q)
	L := res.Layers
	L["codec.encode_us_per_block"] = per("codec.encode")
	L["codec.decode_us_per_block"] = per("codec.decode")
	L["crypto.sign_us"] = per("crypto.sign")
	L["crypto.verify_us"] = per("crypto.verify")
	L["crypto.block_bill_us"] = (n+1)*per("crypto.sign") + (n*(1+fq)+n-1)*per("crypto.verify")
	L["quorum.qc_form_us"] = per("quorum.qc_form")
	L["forest.add_commit_us_per_block"] = per("forest.add_commit")
	L["mempool.cycle_us_per_tx"] = ratio(us("mempool.cycle"), float64(txs))
	L["kvstore.apply_us_per_tx"] = ratio(us("kvstore.apply"), float64(txs))
	L["ledger.append_us_per_block"] = (us("ledger.append") + us("ledger.sync")) / nBlocks
	L["wal.append_nosync_us"] = per("wal.append_nosync")
	L["wal.append_fsync_us"] = per("wal.append_fsync")
	L["network.hop_us"] = per("network.hop")

	// What the replay can account for, per committed block, summed
	// over the cluster — set against the CPU the process really used.
	live := n
	if w.Crash != 0 {
		live--
	}
	txpb := L["core.tx_per_block"]
	bill := live*(L["forest.add_commit_us_per_block"]+L["ledger.append_us_per_block"]+
		L["wal.append_nosync_us"]*L["wal.syncs_per_block"]) +
		L["mempool.cycle_us_per_tx"]*txpb + L["crypto.block_bill_us"] + L["quorum.qc_form_us"]
	if w.Mix.Stores() {
		bill += live * L["kvstore.apply_us_per_tx"] * txpb
	}
	if w.Backend == cluster.BackendTCP {
		bill += (live - 1) * (L["codec.encode_us_per_block"] + L["codec.decode_us_per_block"])
	}
	L["unattributed_share"] = 1 - ratio(bill*L["core.blocks_per_s"]/1e6, res.CPUCores)
	res.Notes = append(res.Notes,
		fmt.Sprintf("replayed %d blocks (%d transactions) of heights %d..%d; block-span self time (replay loop overhead) %.1f us/block",
			count["block"], txs, lo+1, lo+uint64(count["block"]), per("block")),
		"crypto.block_bill_us = (n+1) sign + (n(1+quorum) + n-1) verify: every replica signs a vote and the leader the proposal; every replica verifies the proposal and the quorum signatures of its certificate; the next leader verifies n-1 votes",
		"unattributed_share = 1 - bill x core.blocks_per_s / process.cpu_cores, bill (us per block, whole cluster) = live x (forest + ledger + wal.append_nosync x wal.syncs_per_block [+ kvstore x tx_per_block with stores]) + mempool.cycle x tx_per_block + crypto.block_bill + quorum.qc_form [+ (live-1) x (codec.encode + codec.decode) on tcp]; network.hop_us is a latency (it includes waiting for the peer goroutine or the socket), so it is reported but not billed",
	)
	return tr.writeChrome(filepath.Join(o.OutDir, "trace-"+w.Name+".json"))
}

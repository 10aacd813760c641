// Command bamboo-server runs one Bamboo replica for multi-process
// deployments: consensus over TCP with the peers listed in the
// configuration file, plus the RESTful client API on its own port.
//
// Usage:
//
//	bamboo-server -config bamboo.json -id 1 -http :8080
//
// The configuration file follows Table I of the paper (see
// internal/config); the "address" map lists every replica's consensus
// endpoint.
//
// Besides the client API, the HTTP port carries the fleet control
// plane (see internal/httpapi): /readyz readiness, POST
// /admin/conditions for remote fault injection into the server's
// conditioned transport, and GET /admin/result for the node-local
// slice of a benchmark result. SIGTERM drains the API gracefully; a
// second signal forces exit; the process exits non-zero if it observed
// a safety violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/core"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/protocol"
	"github.com/bamboo-bft/bamboo/internal/types"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("bamboo-server: %v", err)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "bamboo.json", "path to the JSON run configuration")
		id         = flag.Uint("id", 0, "this replica's node ID (key into the address map)")
		httpAddr   = flag.String("http", "", "address for the RESTful client API (empty disables)")
		ledgerPath = flag.String("ledger", "",
			"ledger file for the committed chain (default bamboo-replica-<id>.ledger; \"none\" disables persistence and with it deep catch-up serving and restart replay). The safety WAL (fsync'd before any vote or timeout leaves the node) lives at <ledger>.wal and the latest state snapshot (taken every snapshotInterval committed heights) at <ledger>.snap. A restarted replica rejoining the SAME chain reuses the three files: on startup it replays snapshot + ledger into forest and state machine before joining, then state-syncs only the tail it missed while down. A fresh deployment needs a fresh path (blocks from another chain are never served, but they occupy the file)")
	)
	flag.Parse()
	if *id == 0 {
		return fmt.Errorf("-id is required")
	}
	cfg, err := config.Load(*configPath)
	if err != nil {
		return err
	}
	if len(cfg.Addrs) == 0 {
		return fmt.Errorf("configuration has no replica addresses")
	}
	self := types.NodeID(*id)
	if _, ok := cfg.Addrs[self]; !ok {
		return fmt.Errorf("node %d has no address in the configuration", *id)
	}

	factory, err := protocol.Factory(cfg.Protocol)
	if err != nil {
		return err
	}
	fullScheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		return err
	}
	scheme := crypto.Scheme(fullScheme)
	if ed, ok := fullScheme.(*crypto.Ed25519); ok {
		// Hold only our own private key in this process.
		scheme = ed.Restrict(self)
	}
	transport, err := network.NewTCP(self, cfg.Addrs)
	if err != nil {
		return err
	}
	// Wrap the raw transport in the same condition model the
	// in-process backends use, judged at this sender. Out of the box
	// it only applies the configured base delay/bandwidth (none by
	// default); its real purpose is remote fault injection — a fleet
	// supervisor pushes partitions, delays, and loss onto the running
	// process through POST /admin/conditions.
	replicas := make([]types.NodeID, 0, len(cfg.Addrs))
	for rid := range cfg.Addrs {
		replicas = append(replicas, rid)
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	cond := network.ConditionsFor(cfg)
	shim := network.Condition(transport, cond, replicas)
	store := kvstore.New()
	opts := core.Options{
		Execute: store.Apply,
		State:   store,
		OnViolation: func(err error) {
			log.Printf("SAFETY VIOLATION: %v", err)
		},
	}
	// Persist the committed chain by default: the ledger is both the
	// crash-recovery record and what this replica serves deep
	// catch-up ranges from when a peer falls past the keep window.
	// The snapshot store rides along: periodic state snapshots
	// compact the ledger, serve O(state) catch-up, and make restart
	// replay O(gap) instead of O(chain).
	if *ledgerPath != "none" {
		path := *ledgerPath
		if path == "" {
			path = fmt.Sprintf("bamboo-replica-%d.ledger", *id)
		}
		st, err := core.OpenStores(path, core.DurabilitySynced, true)
		if err != nil {
			return err
		}
		defer func() { _ = st.Close() }()
		opts.Ledger, opts.WAL, opts.Snapshots = st.Ledger, st.WAL, st.Snapshots
	}
	node := core.NewNode(self, cfg, factory, shim, scheme, opts)

	var httpSrv *http.Server
	var api *httpapi.Server
	if *httpAddr != "" {
		api = httpapi.New(node, uint64(self), 30*time.Second)
		api.SetConditions(cond)
		httpSrv = &http.Server{
			Addr:              *httpAddr,
			Handler:           api.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("http api: %v", err)
			}
		}()
	}

	node.Start()
	if api != nil {
		// Ready only now: the TCP transport is bound and bootstrap
		// replay (inside Start) has finished, so a supervisor polling
		// /readyz never races a replica that would still reject load.
		api.SetReady()
	}
	if replayed := node.Pipeline().Snapshot().ReplayedBlocks; replayed > 0 || node.Status().SnapshotHeight > 0 {
		st := node.Status()
		log.Printf("bootstrap: restored snapshot height %d, replayed %d ledger blocks (committed height %d)",
			st.SnapshotHeight, replayed, st.CommittedHeight)
	}
	log.Printf("replica %s running %s with %d peers (consensus %s, http %q)",
		self, cfg.Protocol, cfg.N, cfg.Addrs[self], *httpAddr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("shutting down on %v (second signal forces immediate exit)", s)
	go func() {
		s := <-sig
		log.Printf("forced exit on second %v", s)
		os.Exit(3)
	}()
	if httpSrv != nil {
		// Drain in-flight API requests instead of slamming their
		// connections — a benchmark driver's final POST /tx should
		// get its answer, not a reset. The deadline keeps a stuck
		// client from pinning the process; stragglers are cut off.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			_ = httpSrv.Close()
		}
		cancel()
	}
	node.Stop()
	if err := shim.Close(); err != nil {
		return err
	}
	status := node.Status()
	log.Printf("final state: view %d, committed height %d", status.CurView, status.CommittedHeight)
	if v := node.Violations(); v > 0 {
		// A replica that witnessed safety violations must not exit 0:
		// supervisors treat the exit status as the verdict.
		return fmt.Errorf("%d safety violations observed", v)
	}
	return nil
}

// Command bamboo-bench regenerates the paper's evaluation (Section
// VI) on this machine: Table II, Figures 8-15, and the ablation
// studies, printing rows/series in the shape the paper reports. Every
// experiment runs through the declarative harness, so alongside the
// human-readable rows the structured results can be exported as JSON
// for regression tracking and plotting.
//
// Usage:
//
//	bamboo-bench [-scale 0.25] [-seed 1] [-json dir] table2 fig8 ... | all
//	bamboo-bench -run scenario.json [-backend tcp] [-json dir]
//	bamboo-bench -wire [-json dir]
//
// -scale 1 runs paper-like durations; smaller values shrink every
// warmup/measurement window proportionally. -json writes one
// BENCH_<experiment>.json file per selected experiment into the given
// directory (created if missing), each an array of harness Results.
// `all` runs everything in order.
//
// -run executes one declared scenario from a JSON Experiment file
// (validated before anything starts) instead of the named experiments;
// -backend deploys over the in-process switch or real loopback TCP
// sockets, overriding the scenario's own backend — the same file must
// yield a consistent Result on either, which is exactly what the
// tcp-smoke CI job asserts.
//
// -wire runs the wire-codec micro-benchmarks (binary codec vs the
// retained gob reference, over the hot-path message mix) and, with
// -json, writes the structured report as BENCH_wire.json — the file
// the perf-smoke CI job gates on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/bamboo-bft/bamboo/internal/bench"
	"github.com/bamboo-bft/bamboo/internal/codec/wirebench"
	"github.com/bamboo-bft/bamboo/internal/harness"
)

var experiments = []struct {
	name string
	desc string
	run  func(*bench.Runner) error
}{
	{"table2", "arrival rate vs throughput (HotStuff)", (*bench.Runner).RunTable2},
	{"fig8", "model vs implementation L-curves", (*bench.Runner).RunFigure8},
	{"fig9", "block sizes 100/400/800 (+OHS)", (*bench.Runner).RunFigure9},
	{"fig10", "payload sizes 0/128/1024", (*bench.Runner).RunFigure10},
	{"fig11", "added network delays 0/5/10ms", (*bench.Runner).RunFigure11},
	{"fig12", "scalability 4..64 nodes", (*bench.Runner).RunFigure12},
	{"fig13", "forking attack, 32 nodes", (*bench.Runner).RunFigure13},
	{"fig14", "silence attack, 32 nodes", (*bench.Runner).RunFigure14},
	{"fig15", "responsiveness timeline", (*bench.Runner).RunFigure15},
	{"ablation-crypto", "signature scheme cost", (*bench.Runner).RunAblationCrypto},
	{"ablation-routing", "vote routing designs", (*bench.Runner).RunAblationVoteBroadcast},
	{"ablation-responsive", "responsive vs Δ-wait", (*bench.Runner).RunAblationResponsiveness},
	{"ablation-batching", "client path / batching", (*bench.Runner).RunAblationBatching},
	{"ablation-fanout", "client fan-out designs", (*bench.Runner).RunAblationClientFanout},
	{"ablation-election", "leader-election designs", (*bench.Runner).RunAblationElection},
	{"load", "open-loop rate ladder through saturation (tail latency, admission control)", (*bench.Runner).RunLoadLadder},
	{"stages", "per-stage commit-latency breakdown + chain quality (proposer shares, Gini)", (*bench.Runner).RunStages},
}

func main() {
	var (
		scale    = flag.Float64("scale", 0.25, "duration scale; 1.0 = paper-like run lengths")
		seed     = flag.Int64("seed", 1, "workload and key seed")
		jsonDir  = flag.String("json", "", "directory for BENCH_<experiment>.json result files")
		scenario = flag.String("run", "", "JSON scenario (Experiment) file to run instead of named experiments")
		backend  = flag.String("backend", "", fmt.Sprintf(
			"deployment backend: %q (in-process, default), %q (loopback sockets), or %q (one bamboo-server process per replica)",
			harness.BackendSwitch, harness.BackendTCP, harness.BackendFleet))
		wire = flag.Bool("wire", false, "run the wire-codec micro-benchmarks (binary codec vs gob reference)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bamboo-bench [flags] <experiment>... | all\n")
		fmt.Fprintf(os.Stderr, "       bamboo-bench -run scenario.json [-backend tcp]\n")
		fmt.Fprintf(os.Stderr, "       bamboo-bench -wire [-json dir]\n\nexperiments:\n")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	log.SetFlags(0)
	if *backend != "" {
		// The harness keeps the single registered-backends list; the
		// flag accepts exactly what a scenario file may declare.
		known := false
		for _, b := range harness.Backends() {
			if *backend == b {
				known = true
				break
			}
		}
		if !known {
			log.Fatalf("bamboo-bench: unknown backend %q (want %s)",
				*backend, strings.Join(harness.Backends(), ", "))
		}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatalf("bamboo-bench: %v", err)
		}
	}
	if *wire {
		if *scenario != "" || len(args) > 0 {
			log.Fatalf("bamboo-bench: -wire runs alone; drop other experiments")
		}
		if err := runWire(*jsonDir); err != nil {
			log.Fatalf("bamboo-bench: %v", err)
		}
		return
	}
	if *scenario != "" {
		if len(args) > 0 {
			log.Fatalf("bamboo-bench: -run replaces named experiments; drop %q", args[0])
		}
		// A scenario file carries its own durations and seed; letting
		// -scale/-seed pass silently would measure under parameters
		// the user thinks they set.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" || f.Name == "seed" {
				log.Fatalf("bamboo-bench: -%s does not apply to -run (the scenario file declares its own)", f.Name)
			}
		})
		if err := runScenario(*scenario, *backend, *jsonDir); err != nil {
			log.Fatalf("bamboo-bench: %v", err)
		}
		return
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, e := range experiments {
				selected[e.name] = true
			}
			continue
		}
		known := false
		for _, e := range experiments {
			if e.name == a {
				known = true
			}
		}
		if !known {
			log.Fatalf("bamboo-bench: unknown experiment %q (try -h)", a)
		}
		selected[a] = true
	}

	runner := bench.NewRunner(os.Stdout, *scale, *seed)
	runner.Backend = *backend
	for _, e := range experiments {
		if !selected[e.name] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		start := time.Now()
		if err := e.run(runner); err != nil {
			log.Fatalf("bamboo-bench: %s: %v", e.name, err)
		}
		fmt.Printf("=== %s done in %v ===\n\n", e.name, time.Since(start).Round(time.Millisecond))
		results := runner.TakeResults()
		if *jsonDir == "" {
			continue
		}
		for _, res := range results {
			if res.Name == "" {
				res.Name = e.name
			}
		}
		if err := writeResults(*jsonDir, e.name, results); err != nil {
			log.Fatalf("bamboo-bench: %v", err)
		}
	}
}

// runWire benchmarks the binary wire codec against the retained gob
// reference over the hot-path message mix and, with a -json dir,
// writes the report as BENCH_wire.json.
func runWire(jsonDir string) error {
	fmt.Printf("=== wire: binary codec vs gob reference ===\n")
	start := time.Now()
	rep := wirebench.Run(os.Stdout)
	s := rep.Summary
	fmt.Printf("=== wire done in %v ===\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("mix (encode+decode one of each fixture): wire %.0f ns, gob %.0f ns -> %.1fx faster\n",
		s.WireNsPerMix, s.GobNsPerMix, s.SpeedupX)
	fmt.Printf("mix allocations: wire %d, gob %d -> %.1fx fewer\n",
		s.WireAllocsPerMix, s.GobAllocsPerMix, s.AllocRatioX)
	if jsonDir == "" {
		return nil
	}
	path := filepath.Join(jsonDir, "BENCH_wire.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal wire report: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cases)\n", path, len(rep.Cases))
	return nil
}

// writeResults exports one experiment's structured results as
// BENCH_<name>.json in dir.
func writeResults(dir, name string, results []*harness.Result) error {
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", name))
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", name, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n\n", path, len(results))
	return nil
}

// runScenario loads, validates, and executes one declared scenario
// file, printing a summary and exporting the Result (named
// BENCH_<scenario>-<backend>.json so runs of the same file over both
// backends sit side by side). The result file is written even when the
// run fails, so CI artifacts capture the Error field.
func runScenario(path, backend, jsonDir string) error {
	exp, err := harness.LoadExperiment(path)
	if err != nil {
		return err
	}
	if backend != "" {
		exp.Backend = backend
	}
	fmt.Printf("=== scenario %s (backend %s) ===\n", exp.Name,
		resolvedBackend(exp.Backend))
	start := time.Now()
	res, runErr := harness.Run(exp)
	fmt.Printf("=== scenario %s done in %v ===\n", exp.Name, time.Since(start).Round(time.Millisecond))
	for i, p := range res.Points {
		fmt.Printf("point %d: offered %.0f -> %.1f tx/s, p50 %v, p99 %v, %d blocks\n",
			i+1, p.Offered, p.Throughput, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond), p.Blocks)
	}
	fmt.Printf("network: %d msgs, %d bytes, %d dropped", res.Network.Msgs, res.Network.Bytes, res.Network.Dropped)
	if res.Network.Dials > 0 {
		fmt.Printf(", %d dials (%d redials)", res.Network.Dials, res.Network.Redials)
	}
	fmt.Printf("\nconsistent=%v recovered=%v violations=%d\n", res.Consistent, res.Recovered, res.Violations)
	if jsonDir != "" {
		name := fmt.Sprintf("%s-%s", res.Name, res.Backend)
		if err := writeResults(jsonDir, name, []*harness.Result{res}); err != nil {
			return err
		}
	}
	return runErr
}

// resolvedBackend names the backend a blank declaration falls back to.
func resolvedBackend(b string) string {
	if b == "" {
		return harness.BackendSwitch
	}
	return b
}

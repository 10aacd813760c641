// Command bamboo-bench regenerates the paper's evaluation (Section
// VI) on this machine: Table II, Figures 8-15, two ablations, the load
// ladder and the stage breakdown, each a declared list of harness
// experiments (figures.go). Every selected figure, and a -run scenario,
// goes through one path: validate every run before the first starts,
// run each through harness.Run, print one report per Result, and
// export the Results as JSON.
//
// Usage:
//
//	bamboo-bench [-scale 0.25] [-seed 1] [-backend tcp] [-json dir] table2 fig8 ... | all
//	bamboo-bench -run scenario.json [-backend tcp] [-json dir]
//
// -scale 1 runs paper-like durations; smaller values shrink every
// warmup/measurement window proportionally. -json writes one
// BENCH_<experiment>.json file per selected experiment into the given
// directory (created if missing), each an array of harness Results; a
// failing run still lands in its file, with its error field set, and
// the command exits non-zero. `all` runs everything in order.
//
// -run executes one declared scenario from a JSON Experiment file,
// written as BENCH_<scenario>-<backend>.json. -backend deploys over the
// in-process switch, loopback TCP sockets or one bamboo-server process
// per replica, overriding the declared backend; the tcp-smoke CI job
// asserts the same file yields a consistent Result on each.
//
// The wire codec's micro-benchmarks are plain Go benchmarks:
// `go test -bench PerMessage -benchmem ./internal/codec`.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/bamboo-bft/bamboo/internal/harness"
	"github.com/bamboo-bft/bamboo/internal/metrics"
)

// job is the runs that share one result file: a figure or a scenario.
type job struct {
	name string // the file is BENCH_<name>.json
	desc string
	exps []harness.Experiment
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
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bamboo-bench [flags] <experiment>... | all\n")
		fmt.Fprintf(os.Stderr, "       bamboo-bench -run scenario.json [-backend tcp]\n\nexperiments:\n")
		for _, f := range figures {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", f.name, f.desc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	log.SetFlags(0)
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatalf("bamboo-bench: %v", err)
		}
	}
	var jobs []job
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
		exp, err := harness.LoadExperiment(*scenario)
		if err != nil {
			log.Fatalf("bamboo-bench: %v", err)
		}
		exp.Backend = cmp.Or(*backend, exp.Backend)
		backendName := cmp.Or(exp.Backend, harness.BackendSwitch)
		jobs = []job{{exp.Name + "-" + backendName, "scenario over " + backendName, []harness.Experiment{exp}}}
	} else {
		if len(args) == 0 {
			flag.Usage()
			os.Exit(2)
		}
		var err error
		if jobs, err = figureJobs(args, *scale, *seed, *backend); err != nil {
			log.Fatalf("bamboo-bench: %v (try -h)", err)
		}
	}
	if err := runJobs(os.Stdout, *jsonDir, jobs); err != nil {
		log.Fatalf("bamboo-bench: %v", err)
	}
}

// figureJobs declares the selected figures, in declaration order, at
// scale and seed, over backend ("" keeps the harness default).
func figureJobs(names []string, scale float64, seed int64, backend string) ([]job, error) {
	if scale <= 0 {
		scale = 1
	}
	if seed == 0 {
		seed = 1
	}
	selected := map[string]bool{}
	for _, name := range names {
		known := name == "all"
		for _, f := range figures {
			if name == f.name || name == "all" {
				known = true
				selected[f.name] = true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
	}
	var jobs []job
	for _, f := range figures {
		if !selected[f.name] {
			continue
		}
		exps := f.runs(scale, seed)
		for i := range exps {
			exps[i].Backend = cmp.Or(backend, exps[i].Backend)
		}
		jobs = append(jobs, job{f.name, f.desc, exps})
	}
	return jobs, nil
}

// runJobs is the one run path. It validates every run of every job
// before the first starts, then runs each through harness.Run, prints
// a report per Result and, with a jsonDir, writes each job's Results
// as BENCH_<job>.json. A failing run ends the command: its job's file
// is still written, carrying that run's error, and the error returned.
func runJobs(w io.Writer, jsonDir string, jobs []job) error {
	for _, j := range jobs {
		for i := range j.exps {
			e := &j.exps[i]
			if err := errors.Join(e.Config.Validate(), e.Validate()); err != nil {
				return fmt.Errorf("%s run %d (%s): %w", j.name, i+1, e.Name, err)
			}
		}
	}
	for _, j := range jobs {
		fmt.Fprintf(w, "=== %s: %s ===\n", j.name, j.desc)
		start := time.Now()
		var results []*harness.Result
		var runErr error
		for _, e := range j.exps {
			res, err := harness.Run(e)
			results = append(results, res)
			report(w, res)
			if err != nil {
				runErr = fmt.Errorf("%s: %s: %w", j.name, e.Name, err)
				break
			}
		}
		fmt.Fprintf(w, "=== %s done in %v ===\n\n", j.name, time.Since(start).Round(time.Millisecond))
		if jsonDir != "" {
			if err := writeJSON(w, jsonDir, j.name, results); err != nil {
				return err
			}
		}
		if runErr != nil {
			return runErr
		}
	}
	return nil
}

// report prints one Result: a line per measured point, the committed-
// rate series when there is one, one line of per-stage p50/p99 with
// the Gini, the network totals and the verdicts.
func report(w io.Writer, res *harness.Result) {
	c := res.Config
	fmt.Fprintf(w, "-- %s [%s] %s n=%d bsize=%d psize=%d delay=%v timeout=%v byz=%d",
		res.Name, res.Backend, c.Protocol, c.N, c.BlockSize, c.PayloadSize, c.Delay, c.Timeout, c.ByzNo)
	if c.ByzNo > 0 {
		fmt.Fprintf(w, " (%s)", c.Strategy)
	}
	fmt.Fprintln(w)
	for _, p := range res.Points {
		fmt.Fprintf(w, "offered %-8.0f tput %8.0f tx/s  mean %s  p50 %s  p99 %s ms  CGR %.3f  BI %.2f  blocks %d  poolRej %d\n",
			p.Offered, p.Throughput, ms(p.Mean), ms(p.P50), ms(p.P99), p.CGR, p.BI, p.Blocks, p.PoolRejections)
	}
	if len(res.Series) > 0 {
		fmt.Fprintf(w, "series (tx/s per %v):", res.Measure.Bucket)
		for _, v := range res.Series {
			fmt.Fprintf(w, " %.0f", v)
		}
		fmt.Fprintln(w)
	}
	var stages []string
	for _, name := range metrics.StageNames {
		if s, ok := res.Stages[name]; ok {
			stages = append(stages, fmt.Sprintf("%s %s/%s", name, ms(s.P50), ms(s.P99)))
		}
	}
	fmt.Fprintf(w, "stages p50/p99 ms: %s  gini %.3f\n", strings.Join(stages, "  "), res.Gini)
	n := res.Network
	fmt.Fprintf(w, "network: %d msgs, %d bytes, %d dropped", n.Msgs, n.Bytes, n.Dropped)
	if n.Dials > 0 {
		fmt.Fprintf(w, ", %d dials (%d redials)", n.Dials, n.Redials)
	}
	fmt.Fprintf(w, "\nconsistent=%v recovered=%v violations=%d", res.Consistent, res.Recovered, res.Violations)
	if res.Error != "" {
		fmt.Fprintf(w, " error=%q", res.Error)
	}
	fmt.Fprintln(w)
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// writeJSON exports v as BENCH_<name>.json in dir.
func writeJSON(w io.Writer, dir, name string, v any) error {
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", name))
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", name, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}

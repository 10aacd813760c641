// Command benchmark is the repository's benchmark: four named
// workloads, client-side commit latency from exact per-request
// samples, and — in a separate traced run — a per-layer cost table
// from replaying the committed blocks through each layer's public
// functions. See README.md beside this file.
//
//	bash benchmark/run.sh [-workload name|all] [-seed 1] [-seconds 20]
//	    [-trace 0|1] [-repeat 1] [-warmup 0] [-json path] [-out out]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric. Bound (end-to-end only) is the
// share of the parent's median by which the metric may worsen before
// a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the gated metrics, reported for every workload by a
// timed run. failed_share is printed too but cannot be gated by a
// relative bound: it is 0 on every workload. The bounds are sized to
// the reference host, a shared microVM whose speed drifted by 8% between
// two back-to-back sets of runs of unchanged code and by 20% within an
// hour (README, "Self-agreement").
var endToEnd = []metricDef{
	{Name: "commit_tps", Unit: "tx/s", Better: "higher", Bound: 0.20},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "commit_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func (r *result) endToEndValue(name string) float64 {
	switch name {
	case "commit_tps":
		return r.TPS
	case "commit_p50_ms":
		return r.P50Ms
	case "commit_p99_ms":
		return r.P99Ms
	case "setup_s":
		return r.SetupS
	}
	panic("benchmark: unknown end-to-end metric " + name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of a run's standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what -json writes: the environment, every run, and the
// self-agreement table of a -repeat run.
type report struct {
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Runs       []*result   `json:"runs"`
	Agreement  []agreement `json:"agreement,omitempty"`
}

type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is how much worse the second run read, as a share of the
	// first (negative: it read better).
	Worse float64 `json:"worse"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// commit is the revision under test, as run.sh found it (a checkout
// that is not a git repository has none).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// print writes one line per metric as "<workload> <metric> <value>
// <unit>", then the verdict line the driver parses.
func (r *result) print() {
	line := func(name string, v float64, unit string) {
		fmt.Printf("%s %s %s %s\n", r.Workload, name, formatValue(v), unit)
	}
	for _, m := range endToEnd {
		line(m.Name, r.endToEndValue(m.Name), m.Unit)
	}
	line("failed_share", r.FailedShare, "ratio")
	for _, q := range r.Window {
		unit := fmt.Sprintf("ms (whole window, %d samples)", r.Attempted-r.Failed)
		if !q.Supported {
			unit += " UNSUPPORTED: fewer than 10 samples beyond"
		}
		line("window_"+q.Q+"_ms", q.Ms, unit)
	}
	if r.TargetRate > 0 {
		line("target_rate", r.TargetRate, "1/s")
		line("achieved_rate", r.AchievedRate, "1/s")
		line("gen_lag_p99_ms", r.GenLagP99Ms, "ms")
		line("gen_lag_max_ms", r.GenLagMaxMs, "ms")
	}
	line("process.cpu_us_per_tx", r.CPUUsPerTx, "us")
	line("process.cpu_cores", r.CPUCores, "cores")
	line("process.peak_rss_mb", r.PeakRSSMB, "MB")
	if r.SLOOk != nil {
		fmt.Printf("%s slo_ok %v bool\n", r.Workload, *r.SLOOk)
	}
	for _, m := range perLayer {
		if v, ok := r.Layers[m.Name]; ok {
			line(m.Name, v, m.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Printf("%s note: %s\n", r.Workload, n)
	}
	for _, e := range r.CheckErrors {
		fmt.Printf("%s CHECK FAILED: %s\n", r.Workload, e)
	}

	v := verdict{Correct: len(r.CheckErrors) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	if r.Traced {
		for _, m := range perLayer {
			v.Metrics[m.Name] = metricValue{r.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			v.Metrics[m.Name] = metricValue{r.endToEndValue(m.Name), m.Unit}
		}
	}
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to marshal
	}
	fmt.Println(string(out))
}

// noteOverhead sets the traced run's throughput against the last timed
// run of the same workload and window, if one left its result behind:
// the difference is what tracing (the commit listener) costs.
func (r *result) noteOverhead(timedPath string) {
	data, err := os.ReadFile(timedPath)
	if err != nil {
		return
	}
	var timed result
	if json.Unmarshal(data, &timed) != nil || timed.TPS == 0 || timed.WindowS != r.WindowS {
		return
	}
	r.Notes = append(r.Notes, fmt.Sprintf("tracing overhead: commit_tps %s traced vs %s timed (seed %d): %+.2f%%",
		formatValue(r.TPS), formatValue(timed.TPS), timed.Seed, 100*(r.TPS-timed.TPS)/timed.TPS))
}

// formatValue prints a measurement for the human-readable lines; the
// verdict line and the JSON files carry every digit.
func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// agree compares the first two runs of each workload, metric by
// metric, against the metric's own bound.
func agree(runs []*result) []agreement {
	var out []agreement
	for _, w := range workloads {
		var pair []*result
		for _, r := range runs {
			if r.Workload == w.Name {
				pair = append(pair, r)
			}
		}
		if len(pair) < 2 {
			continue
		}
		for _, m := range endToEnd {
			a, b := pair[0].endToEndValue(m.Name), pair[1].endToEndValue(m.Name)
			worse := ratio(b-a, a)
			if m.Better == "higher" {
				worse = -worse
			}
			out = append(out, agreement{w.Name, m.Name, a, b, worse, m.Bound, worse <= m.Bound})
		}
	}
	return out
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seeds the generated transactions and the arrival schedule")
		seconds = flag.Int("seconds", 20, "measured window, seconds")
		warmup  = flag.Duration("warmup", 0, "load applied before the window opens (0: the workload's own)")
		trace   = flag.Int("trace", 0, "1: traced run (per-layer replay table, Chrome trace file)")
		repeat  = flag.Int("repeat", 1, "run the set this many times; 2 prints the self-agreement table")
		jsonOut = flag.String("json", "", "also write the full report here")
		outDir  = flag.String("out", "out", "directory for ledgers (while running), results and trace files")
	)
	flag.Parse()
	opts := runOpts{Seed: *seed, Warmup: *warmup, Window: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, OutDir: *outDir}
	if err := run(*name, *repeat, *jsonOut, opts); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, repeat int, jsonOut string, opts runOpts) error {
	todo := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []spec{w}
	}
	if opts.Window < time.Second || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return err
	}
	rep := report{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit()}
	correct := true
	for i := 0; i < repeat; i++ {
		for _, w := range todo {
			res, err := runWorkload(w, opts)
			if err != nil {
				return err
			}
			if opts.Trace {
				res.noteOverhead(filepath.Join(opts.OutDir, "timed-"+w.Name+".json"))
			}
			res.print()
			correct = correct && len(res.CheckErrors) == 0
			rep.Runs = append(rep.Runs, res)
			kind := "timed"
			if opts.Trace {
				kind = "traced"
			}
			if err := writeJSON(filepath.Join(opts.OutDir, kind+"-"+w.Name+".json"), res); err != nil {
				return err
			}
		}
	}
	rep.Agreement = agree(rep.Runs)
	for _, a := range rep.Agreement {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("agreement %s %s first %s second %s worse %+.2f%% bound %.0f%% %s\n",
			a.Workload, a.Metric, formatValue(a.First), formatValue(a.Second),
			100*a.Worse, 100*a.Bound, verdict)
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, rep); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

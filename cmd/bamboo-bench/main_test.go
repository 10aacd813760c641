package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/harness"
)

// TestFiguresValidate checks every declared run of every figure, at
// the smallest and the paper-like scale, against both validations the
// run path applies before anything starts.
func TestFiguresValidate(t *testing.T) {
	for _, scale := range []float64{0.01, 1} {
		for _, f := range figures {
			exps := f.runs(scale, 1)
			if len(exps) == 0 {
				t.Errorf("%s at scale %v declares no runs", f.name, scale)
			}
			for i, e := range exps {
				if e.Name == "" {
					t.Errorf("%s run %d at scale %v has no name", f.name, i, scale)
				}
				if err := e.Config.Validate(); err != nil {
					t.Errorf("%s run %d at scale %v: %v", f.name, i, scale, err)
				}
				if err := e.Validate(); err != nil {
					t.Errorf("%s run %d at scale %v: %v", f.name, i, scale, err)
				}
			}
		}
	}
}

// readResults decodes one BENCH_<name>.json file.
func readResults(t *testing.T, dir, name string) []harness.Result {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var results []harness.Result
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestFigureSmoke runs figures at the smallest scale through the one
// run path, each declared list filtered down to its small clusters and
// low Byzantine counts, so the declarations cannot bit-rot.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke skipped in -short")
	}
	all := func(harness.Experiment) bool { return true }
	small := func(e harness.Experiment) bool { return e.Config.N <= 8 }
	fewByzantine := func(e harness.Experiment) bool { return e.Config.ByzNo <= 2 }
	// Under -race the instrumented cluster saturates near the lowest
	// declared rate. The rungs past it tear down promptly (the pacer
	// sheds what it cannot offer), but a host busy with other test
	// binaries can leave a 150 ms window at 117k tx/s with no commit,
	// which the throughput check below would report.
	sustained := func(e harness.Experiment) bool { return !raceEnabled || e.Measure.Rate <= 0.15*satTable2 }
	cases := []struct {
		name  string
		scale float64
		keep  func(harness.Experiment) bool
		chain bool // CGR and BI must be measured
	}{
		{"table2", 0.01, sustained, false},
		{"fig12", 0.01, small, false},
		// 32 replicas get a 400 ms warm-up and a 1 s window, so a
		// loaded host still commits in it.
		{"fig13", 0.4, fewByzantine, true},
		{"fig14", 0.4, fewByzantine, true},
		{"ablation-fanout", 0.01, all, false},
		{"ablation-election", 0.01, all, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := figureJobs([]string{tc.name}, tc.scale, 7, "")
			if err != nil {
				t.Fatal(err)
			}
			var kept []harness.Experiment
			for _, e := range jobs[0].exps {
				if tc.keep(e) {
					kept = append(kept, e)
				}
			}
			jobs[0].exps = kept
			dir := t.TempDir()
			if err := runJobs(io.Discard, dir, jobs); err != nil {
				t.Fatal(err)
			}
			results := readResults(t, dir, tc.name)
			if len(results) != len(kept) {
				t.Fatalf("%d results for %d runs", len(results), len(kept))
			}
			for _, res := range results {
				if len(res.Points) == 0 {
					t.Fatalf("%s: no points", res.Name)
				}
				if raceEnabled && res.Config.N > 8 {
					// Instrumented replicas can miss the view timer
					// at n=32 and time out the whole window.
					continue
				}
				for _, p := range res.Points {
					if p.Throughput <= 0 {
						t.Errorf("%s n=%d byz=%d: no throughput: %+v", res.Name, res.Config.N, res.Config.ByzNo, p)
					}
					if tc.chain && (p.CGR <= 0 || p.BI <= 0) {
						t.Errorf("%s byz=%d: chain metrics missing: CGR %v BI %v", res.Name, res.Config.ByzNo, p.CGR, p.BI)
					}
				}
			}
		})
	}
}

// TestFigure15Smoke runs the declared HotStuff t10 timeline at a scale
// whose buckets still resolve the phases.
func TestFigure15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke skipped in -short")
	}
	var exp *harness.Experiment
	exps := fig15(0.1, 7)
	for i, e := range exps {
		if e.Name == "fig15-"+config.ProtocolHotStuff && e.Config.Timeout == 10*time.Millisecond {
			exp = &exps[i]
		}
	}
	if exp == nil {
		t.Fatal("fig15 declares no HotStuff t10 run")
	}
	res, err := harness.Run(*exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 10 {
		t.Fatalf("series too short: %d buckets", len(res.Series))
	}
	// Committed throughput must be nonzero before the fluctuation.
	var preSum float64
	for _, v := range res.Series[:3] {
		preSum += v
	}
	if preSum == 0 {
		t.Fatalf("no commits before fluctuation: %v", res.Series)
	}
}

// TestFailedRunWritesResult: a run that fails once started still lands
// in its job's file, with its error, next to the runs before it.
func TestFailedRunWritesResult(t *testing.T) {
	good := closedLoop("good", protocolConfig(1, config.ProtocolHotStuff),
		150*time.Millisecond, 150*time.Millisecond, 8)
	// Config validation admits protocol names it does not know (custom
	// protocols register at run time); the cluster build rejects it.
	bad := good
	bad.Name = "bad"
	bad.Config.Protocol = "no-such-protocol"
	dir := t.TempDir()
	err := runJobs(io.Discard, dir, []job{{"broken", "a failing run", []harness.Experiment{good, bad}}})
	if err == nil {
		t.Fatal("failing run reported no error")
	}
	results := readResults(t, dir, "broken")
	if len(results) != 2 {
		t.Fatalf("want both results in the file, have %d", len(results))
	}
	if results[0].Error != "" || len(results[0].Points) == 0 {
		t.Fatalf("first run: error %q, %d points", results[0].Error, len(results[0].Points))
	}
	if results[1].Name != "bad" || results[1].Error == "" {
		t.Fatalf("failed run not exported with its error: name %q error %q", results[1].Name, results[1].Error)
	}
}

// TestValidateBeforeRunning: a run the selection cannot start fails the
// command before any earlier run is measured.
func TestValidateBeforeRunning(t *testing.T) {
	// The fleet cannot fan out, so ablation-fanout is invalid there;
	// load, selected first, must not run.
	jobs, err := figureJobs([]string{"load", "ablation-fanout"}, 0.02, 1, harness.BackendFleet)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	err = runJobs(&out, dir, jobs)
	if err == nil || !strings.Contains(err.Error(), "fan out") {
		t.Fatalf("want the fan-out rejection, have %v", err)
	}
	if out.Len() > 0 {
		t.Fatalf("runs started before validation failed:\n%s", out.String())
	}
	if files, _ := os.ReadDir(dir); len(files) > 0 {
		t.Fatalf("result files written: %v", files)
	}

	if _, err := figureJobs([]string{"table2", "fig99"}, 1, 1, ""); err == nil {
		t.Fatal("unknown figure accepted")
	}
	jobs, err = figureJobs([]string{"table2", "fig12"}, 1, 1, harness.BackendTCP)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		for _, e := range j.exps {
			if e.Backend != harness.BackendTCP {
				t.Fatalf("%s: backend %q, want the -backend override", j.name, e.Backend)
			}
		}
	}
}

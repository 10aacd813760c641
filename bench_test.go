package bamboo_test

// One testing.B benchmark per table and figure of the paper's
// evaluation (Section VI), plus the ablations DESIGN.md calls out.
// Each benchmark executes its experiment runner once per b.N at a
// small time scale (BAMBOO_BENCH_SCALE overrides, default 0.05 here)
// and prints the paper-style rows to stdout, so
//
//	go test -bench=. -benchmem
//
// both exercises the full harness and emits every reproduced series.
// Paper-scale runs: `go run ./cmd/bamboo-bench -scale 1 all`.

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/bench"
)

// benchScale reads the duration scale for testing.B runs.
func benchScale() float64 {
	if v := os.Getenv("BAMBOO_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.05
}

// runExperiment drives one figure runner b.N times.
func runExperiment(b *testing.B, fn func(*bench.Runner) error, shrinkDims bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(os.Stdout, benchScale(), 1)
		if shrinkDims && benchScale() < 0.2 {
			// Keep the quick default runs tractable on small CI
			// hosts; paper-scale runs sweep the full dimensions.
			r.Ns = []int{4, 8, 16, 32}
			r.ByzLevels = []int{0, 2, 6, 10}
			r.Levels = []int{4, 16, 64, 256}
		}
		if err := fn(r); err != nil {
			b.Fatal(err)
		}
	}
	fmt.Println()
}

func BenchmarkTable2ArrivalVsThroughput(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunTable2, false)
}

func BenchmarkFigure8ModelVsImpl(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure8, true)
}

func BenchmarkFigure9BlockSizes(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure9, true)
}

func BenchmarkFigure10PayloadSizes(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure10, true)
}

func BenchmarkFigure11NetworkDelays(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure11, true)
}

func BenchmarkFigure12Scalability(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure12, true)
}

func BenchmarkFigure13ForkingAttack(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure13, true)
}

func BenchmarkFigure14SilenceAttack(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure14, true)
}

func BenchmarkFigure15Responsiveness(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunFigure15, false)
}

func BenchmarkAblationCrypto(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunAblationCrypto, false)
}

func BenchmarkAblationVoteBroadcast(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunAblationVoteBroadcast, false)
}

func BenchmarkAblationResponsiveness(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunAblationResponsiveness, false)
}

func BenchmarkAblationBatching(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunAblationBatching, false)
}

func BenchmarkAblationClientFanout(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunAblationClientFanout, false)
}

func BenchmarkAblationElection(b *testing.B) {
	runExperiment(b, (*bench.Runner).RunAblationElection, false)
}

// Command bamboo-client drives load against bamboo-server replicas
// through the RESTful API: the paper's closed-loop benchmark client
// (Table I "concurrency" and "runtime") in standalone form.
//
// Usage:
//
//	bamboo-client -servers http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	              -concurrency 10 -runtime 30s -psize 128
//
// It runs the harness's own client.Client over an HTTP transport: each
// worker keeps one request in flight against a uniformly random server,
// a rejected (429) transaction is retried with backoff, and each
// request waits at most 5 s. At the end it prints the commits, the
// rejections and retries, and the latency distribution.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
)

// perOpTimeout bounds each request, as the harness's default does.
const perOpTimeout = 5 * time.Second

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("bamboo-client: %v", err)
	}
}

func run() error {
	var (
		servers     = flag.String("servers", "http://127.0.0.1:8080", "comma-separated replica API URLs")
		concurrency = flag.Int("concurrency", 10, "closed-loop workers")
		runtime     = flag.Duration("runtime", 30*time.Second, "how long to run")
		psize       = flag.Int("psize", 0, "transaction payload bytes")
		seed        = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	urls := strings.Split(*servers, ",")
	if urls[0] == "" {
		return fmt.Errorf("no servers given")
	}

	// No in-flight limit: the closed loop keeps one request per worker.
	tr := httpapi.NewTransport(1, urls, perOpTimeout, nil)
	cl := client.New(tr, len(urls), *psize, *seed)
	cl.RunClosedLoop(*concurrency, perOpTimeout)
	time.Sleep(*runtime)
	cl.Stop()

	s := cl.Latency().Snapshot()
	fmt.Printf("committed: %d (%.1f Tx/s)\n", cl.Committed(), float64(cl.Committed())/runtime.Seconds())
	fmt.Printf("rejected:  %d (retries %d)\n", cl.Rejected(), cl.Retries())
	fmt.Printf("latency:   mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
		s.Mean, s.P50, s.P95, s.P99, s.Max)
	return nil
}

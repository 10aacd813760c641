// Package fleet spawns, supervises, and tears down a deployment of
// real bamboo-server processes on loopback — the third deployment
// backend, where every replica is its own OS process with its own
// ledger and snapshot files, and the only way in is the wire.
//
// The supervisor reserves ephemeral ports, writes one shared
// configuration file, execs one bamboo-server per replica into a
// run-scoped directory, and waits for every /readyz. Faults cross the
// process boundary for real: a crash is SIGKILL, a restart re-execs
// the child against its surviving ledger and snapshot files (so
// bootstrap replay is measured across an actual process death), and
// partitions, delays, and loss are pushed to every live server's
// POST /admin/conditions. The steady-state condition view is
// accumulated and replayed to restarted replicas, whose fresh
// processes boot with default conditions.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/httpapi"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/trace"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Options configures a fleet deployment.
type Options struct {
	// ServerBin is the bamboo-server binary to exec. Empty resolves
	// through ServerBin(): $BAMBOO_SERVER, then PATH, then a one-time
	// `go build` from the enclosing module.
	ServerBin string
	// Dir is the run directory holding the configuration file and
	// every replica's ledger, snapshot, and log files. Empty creates a
	// temporary directory that Stop removes; a caller-supplied Dir is
	// left in place (reuse it to restart a fleet on surviving state).
	Dir string
	// DisableLedger runs the servers without persistence (-ledger
	// none); restarts then recover over state sync only.
	DisableLedger bool
	// ReadyTimeout bounds the wait for every replica's /readyz after
	// spawn and after each restart. Default 30s.
	ReadyTimeout time.Duration
	// GraceTimeout is how long Stop waits between SIGTERM and SIGKILL.
	// The default (10s) sits above the server's own worst-case drain —
	// bamboo-server gives in-flight API requests up to 5s before
	// closing their connections — so a healthy replica is never killed
	// for draining politely; Stop returns as soon as every child exits,
	// not after the full grace.
	GraceTimeout time.Duration
}

// replica is one supervised child process slot. The slot outlives any
// single incarnation: a restart re-execs into the same slot, keeping
// the ledger/snapshot paths and both ports stable.
type replica struct {
	id       types.NodeID
	consAddr string
	httpAddr string
	ledger   string
	logPath  string

	mu       sync.Mutex
	cmd      *exec.Cmd
	pid      int
	down     bool // no live process in the slot (crashed, not yet restarted)
	killed   bool // we initiated the kill; a non-zero exit is expected
	waitErr  error
	waitDone chan struct{}
	logFile  *os.File
}

// Fleet is a running multi-process deployment.
type Fleet struct {
	cfg     config.Config
	dir     string
	ownDir  bool
	cfgPath string
	bin     string
	grace   time.Duration
	ready   time.Duration
	client  *http.Client

	mu       sync.Mutex
	replicas map[types.NodeID]*replica
	steady   network.ConditionsSpec
	errs     []error

	stopOnce sync.Once
	stopErr  error
}

// New reserves ports, writes the run configuration, spawns one
// bamboo-server per replica, and blocks until every replica reports
// ready (transport bound, bootstrap replay done). On any failure the
// partial fleet is torn down before returning.
func New(cfg config.Config, opts Options) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bin := opts.ServerBin
	if bin == "" {
		var err error
		if bin, err = ServerBin(); err != nil {
			return nil, err
		}
	}
	f := &Fleet{
		cfg:      cfg,
		bin:      bin,
		grace:    opts.GraceTimeout,
		ready:    opts.ReadyTimeout,
		client:   &http.Client{Timeout: 5 * time.Second},
		replicas: make(map[types.NodeID]*replica, cfg.N),
	}
	if f.grace <= 0 {
		f.grace = 10 * time.Second
	}
	if f.ready <= 0 {
		f.ready = 30 * time.Second
	}
	f.dir = opts.Dir
	if f.dir == "" {
		dir, err := os.MkdirTemp("", "bamboo-fleet-")
		if err != nil {
			return nil, fmt.Errorf("fleet: run dir: %w", err)
		}
		f.dir, f.ownDir = dir, true
	} else if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: run dir: %w", err)
	}

	// Reserve two loopback ports per replica (consensus + HTTP) by
	// binding them all simultaneously, then releasing just before the
	// children bind them back. The window between release and re-bind
	// is a benign race on a loopback test host.
	ports, err := reservePorts(2 * cfg.N)
	if err != nil {
		if f.ownDir {
			_ = os.RemoveAll(f.dir)
		}
		return nil, err
	}
	f.cfg.Addrs = make(map[types.NodeID]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := types.NodeID(i + 1)
		f.cfg.Addrs[id] = fmt.Sprintf("127.0.0.1:%d", ports[2*i])
		r := &replica{
			id:       id,
			consAddr: f.cfg.Addrs[id],
			httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]),
			logPath:  filepath.Join(f.dir, fmt.Sprintf("replica-%d.log", id)),
		}
		if !opts.DisableLedger {
			r.ledger = filepath.Join(f.dir, fmt.Sprintf("replica-%d.ledger", id))
		}
		f.replicas[id] = r
	}
	f.cfgPath = filepath.Join(f.dir, "bamboo.json")
	if err := f.cfg.Save(f.cfgPath); err != nil {
		if f.ownDir {
			_ = os.RemoveAll(f.dir)
		}
		return nil, err
	}

	for _, r := range f.sorted() {
		if err := f.spawn(r); err != nil {
			_ = f.Stop()
			return nil, err
		}
	}
	deadline := time.Now().Add(f.ready)
	for _, r := range f.sorted() {
		if err := f.waitReady(r, deadline); err != nil {
			_ = f.Stop()
			return nil, err
		}
	}
	return f, nil
}

// sorted returns the replica slots in ID order (deterministic spawn,
// signal, and merge order).
func (f *Fleet) sorted() []*replica {
	out := make([]*replica, 0, len(f.replicas))
	for i := 1; i <= f.cfg.N; i++ {
		out = append(out, f.replicas[types.NodeID(i)])
	}
	return out
}

// spawn execs one incarnation of the replica into its slot.
func (f *Fleet) spawn(r *replica) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.logFile == nil {
		lf, err := os.OpenFile(r.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("fleet: replica %d log: %w", r.id, err)
		}
		r.logFile = lf
	}
	args := []string{
		"-config", f.cfgPath,
		"-id", strconv.FormatUint(uint64(r.id), 10),
		"-http", r.httpAddr,
	}
	if r.ledger == "" {
		args = append(args, "-ledger", "none")
	} else {
		args = append(args, "-ledger", r.ledger)
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout = r.logFile
	cmd.Stderr = r.logFile
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: replica %d: %w", r.id, err)
	}
	done := make(chan struct{})
	r.cmd = cmd
	r.pid = cmd.Process.Pid
	r.down = false
	r.killed = false
	r.waitErr = nil
	r.waitDone = done
	go func() {
		err := cmd.Wait()
		r.mu.Lock()
		r.waitErr = err
		r.down = true
		r.mu.Unlock()
		close(done)
	}()
	return nil
}

// waitReady polls the replica's /readyz until it answers 200, the
// process dies, or the deadline passes.
func (f *Fleet) waitReady(r *replica, deadline time.Time) error {
	url := fmt.Sprintf("http://%s/readyz", r.httpAddr)
	for {
		r.mu.Lock()
		done := r.waitDone
		r.mu.Unlock()
		select {
		case <-done:
			return fmt.Errorf("fleet: replica %d exited before ready: %w\n%s",
				r.id, r.waitError(), logTail(r.logPath))
		default:
		}
		resp, err := f.client.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: replica %d not ready within %v\n%s",
				r.id, f.ready, logTail(r.logPath))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *replica) waitError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.waitErr
}

// logTail returns the last portion of a replica log for error context.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	const tail = 2048
	if len(data) > tail {
		data = data[len(data)-tail:]
	}
	return string(bytes.TrimSpace(data))
}

// reservePorts binds n loopback ports simultaneously (so no two
// reservations collide), records them, and releases them all.
func reservePorts(n int) ([]int, error) {
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			_ = l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("fleet: reserve port: %w", err)
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// URL returns the base HTTP URL of a replica's API.
func (f *Fleet) URL(id types.NodeID) string {
	return "http://" + f.replicas[id].httpAddr
}

// Config returns the effective configuration (addresses filled in).
func (f *Fleet) Config() config.Config { return f.cfg }

// Dir returns the run directory.
func (f *Fleet) Dir() string { return f.dir }

// Pids returns the current (latest incarnation) PID of every replica —
// the audit trail proving each replica is its own OS process and that
// a restart really re-exec'd.
func (f *Fleet) Pids() map[types.NodeID]int {
	out := make(map[types.NodeID]int, len(f.replicas))
	for id, r := range f.replicas {
		r.mu.Lock()
		out[id] = r.pid
		r.mu.Unlock()
	}
	return out
}

// noteErr records an asynchronous supervision error; Stop surfaces
// them.
func (f *Fleet) noteErr(err error) {
	f.mu.Lock()
	f.errs = append(f.errs, err)
	f.mu.Unlock()
}

// ApplyConditions pushes a declarative condition change to every live
// replica and folds it into the accumulated steady state (replayed to
// replicas that restart with a fresh condition model). Every server
// holds the full deployment view, so sender-side judging matches the
// shared-model in-process backends. Implements the harness fault
// target.
func (f *Fleet) ApplyConditions(spec network.ConditionsSpec) {
	f.mu.Lock()
	f.steady.Merge(spec)
	f.mu.Unlock()
	for _, r := range f.sorted() {
		r.mu.Lock()
		down := r.down
		r.mu.Unlock()
		if down {
			continue
		}
		if err := f.postConditions(r, spec); err != nil {
			f.noteErr(err)
		}
	}
}

func (f *Fleet) postConditions(r *replica, spec network.ConditionsSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("fleet: encode conditions: %w", err)
	}
	resp, err := f.client.Post(
		fmt.Sprintf("http://%s/admin/conditions", r.httpAddr),
		"application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: replica %d conditions: %w", r.id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: replica %d conditions: %s: %s",
			r.id, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// Crash kills the replica's process with SIGKILL — no shutdown path
// runs, exactly what a crash fault means — and reaps it before
// returning, so the schedule's next event sees the process gone.
// Implements the harness fault target.
func (f *Fleet) Crash(id types.NodeID) {
	r := f.replicas[id]
	r.mu.Lock()
	cmd, done := r.cmd, r.waitDone
	r.killed = true
	r.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	_ = cmd.Process.Kill()
	<-done
}

// Restart re-execs a crashed replica against its surviving ledger and
// snapshot files and the same ports, waits for it to finish bootstrap
// replay (/readyz), then replays the accumulated steady-state
// conditions onto its fresh condition model. Implements the harness
// fault target; failures are recorded and surfaced by Stop.
func (f *Fleet) Restart(id types.NodeID) {
	r := f.replicas[id]
	r.mu.Lock()
	down := r.down
	r.mu.Unlock()
	if !down {
		f.noteErr(fmt.Errorf("fleet: restart of replica %d, which is still running", id))
		return
	}
	if err := f.spawn(r); err != nil {
		f.noteErr(err)
		return
	}
	if err := f.waitReady(r, time.Now().Add(f.ready)); err != nil {
		f.noteErr(err)
		return
	}
	f.mu.Lock()
	steady := f.steady
	f.mu.Unlock()
	if !steady.Empty() {
		if err := f.postConditions(r, steady); err != nil {
			f.noteErr(err)
		}
	}
}

// ReplicaResult fetches the replica's node-local result slice.
func (f *Fleet) ReplicaResult(id types.NodeID) (httpapi.ReplicaResult, error) {
	var out httpapi.ReplicaResult
	resp, err := f.client.Get(f.URL(id) + "/admin/result")
	if err != nil {
		return out, fmt.Errorf("fleet: replica %d result: %w", id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("fleet: replica %d result: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("fleet: replica %d result: %w", id, err)
	}
	return out, nil
}

// Metrics scrapes the replica's Prometheus text exposition
// (GET /metrics) — the fleet-wide telemetry plane's raw material, and
// what CI's fleet-smoke asserts parses from a live server process.
func (f *Fleet) Metrics(id types.NodeID) (string, error) {
	resp, err := f.client.Get(f.URL(id) + "/metrics")
	if err != nil {
		return "", fmt.Errorf("fleet: replica %d metrics: %w", id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fleet: replica %d metrics: %s", id, resp.Status)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("fleet: replica %d metrics: %w", id, err)
	}
	return string(text), nil
}

// Trace fetches the replica's block-lifecycle trace rings
// (GET /debug/trace): spans with stage timestamps plus interleaved
// per-view events, decoded from the JSON export.
func (f *Fleet) Trace(id types.NodeID) (trace.Export, error) {
	var out trace.Export
	resp, err := f.client.Get(f.URL(id) + "/debug/trace")
	if err != nil {
		return out, fmt.Errorf("fleet: replica %d trace: %w", id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("fleet: replica %d trace: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("fleet: replica %d trace: %w", id, err)
	}
	return out, nil
}

// HashAt fetches the replica's committed block hash at the height.
// ok=false (without error) means the replica has not committed that
// height.
func (f *Fleet) HashAt(id types.NodeID, height uint64) (string, bool, error) {
	resp, err := f.client.Get(fmt.Sprintf("%s/hash?height=%d", f.URL(id), height))
	if err != nil {
		return "", false, fmt.Errorf("fleet: replica %d hash: %w", id, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusNotFound {
		return "", false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("fleet: replica %d hash: %s", id, resp.Status)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", false, fmt.Errorf("fleet: replica %d hash: %w", id, err)
	}
	return body["hash"], true, nil
}

// Stop tears the fleet down: SIGTERM every live replica, wait out the
// grace period, SIGKILL stragglers, reap everything, and remove the
// run directory if the fleet owns it. It returns the first teardown
// problem: a replica that exited non-zero on its own (bamboo-server
// exits non-zero when it observed a safety violation), a straggler
// that had to be killed, or any recorded supervision error. Idempotent.
func (f *Fleet) Stop() error {
	f.stopOnce.Do(func() { f.stopErr = f.stop() })
	return f.stopErr
}

func (f *Fleet) stop() error {
	var errs []error
	for _, r := range f.sorted() {
		r.mu.Lock()
		if !r.down && r.cmd != nil && r.cmd.Process != nil {
			if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				r.killed = true // already gone; don't blame the exit status
			}
		}
		r.mu.Unlock()
	}
	deadline := time.After(f.grace)
	for _, r := range f.sorted() {
		r.mu.Lock()
		done := r.waitDone
		r.mu.Unlock()
		if done == nil {
			continue
		}
		select {
		case <-done:
		case <-deadline:
			r.mu.Lock()
			r.killed = true
			if r.cmd != nil && r.cmd.Process != nil {
				_ = r.cmd.Process.Kill()
			}
			r.mu.Unlock()
			<-done
			errs = append(errs, fmt.Errorf(
				"fleet: replica %d did not stop within %v and was killed", r.id, f.grace))
		}
	}
	for _, r := range f.sorted() {
		r.mu.Lock()
		if r.waitErr != nil && !r.killed {
			errs = append(errs, fmt.Errorf("fleet: replica %d: %w\n%s",
				r.id, r.waitErr, logTail(r.logPath)))
		}
		if r.logFile != nil {
			_ = r.logFile.Close()
			r.logFile = nil
		}
		r.mu.Unlock()
	}
	f.mu.Lock()
	errs = append(errs, f.errs...)
	f.mu.Unlock()
	if f.ownDir {
		if err := os.RemoveAll(f.dir); err != nil {
			errs = append(errs, fmt.Errorf("fleet: run dir: %w", err))
		}
	}
	return errors.Join(errs...)
}

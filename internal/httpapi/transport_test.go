package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// txServer answers every POST /tx with the status answer returns for
// the n-th request (from 1), after checking the request body decodes.
func txServer(t *testing.T, answer func(n int64) int) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req txRequest
		if r.Method != http.MethodPost || r.URL.Path != "/tx" ||
			json.NewDecoder(r.Body).Decode(&req) != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		status := answer(n.Add(1))
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(txResponse{Committed: status == http.StatusOK,
			Rejected: status == http.StatusTooManyRequests})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// blockingServer holds every POST /tx until release is called, the
// test ends or the client goes away, signalling entered as each request
// arrives; a released request commits.
func blockingServer(t *testing.T, entered chan<- struct{}) (srv *httptest.Server, release func()) {
	t.Helper()
	held := make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		select {
		case <-held:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(release) // runs first: cleanups are LIFO
	return srv, release
}

func newTestTransport(t *testing.T, limit *Limit, urls ...string) *Transport {
	t.Helper()
	tr := NewTransport(7, urls, 2*time.Second, limit)
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// waitDropped polls until tr has counted want drops, or fails.
func waitDropped(t *testing.T, tr *Transport, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Dropped() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tr.Dropped() != want {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), want)
	}
}

// noReply fails if tr delivers anything within a short grace period.
func noReply(t *testing.T, tr *Transport) {
	t.Helper()
	select {
	case env := <-tr.Inbox():
		t.Fatalf("unanswered POST delivered %+v", env.Msg)
	case <-time.After(50 * time.Millisecond):
	}
}

func sendTx(tr *Transport, seq uint64) types.TxID {
	id := types.TxID{Client: 7, Seq: seq}
	tr.Send(1, types.RequestMsg{Tx: types.Transaction{ID: id, Command: []byte("cmd")}})
	return id
}

func recvReply(t *testing.T, tr *Transport) types.ReplyMsg {
	t.Helper()
	select {
	case env := <-tr.Inbox():
		return env.Msg.(types.ReplyMsg)
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
		return types.ReplyMsg{}
	}
}

// TestTransportCommitCarriesClientTxID: a 200 comes back as a commit
// under the client's own TxID — the server's minted ID never leaks.
func TestTransportCommitCarriesClientTxID(t *testing.T) {
	tr := newTestTransport(t, nil, txServer(t, func(int64) int { return http.StatusOK }).URL)
	id := sendTx(tr, 42)
	reply := recvReply(t, tr)
	if reply.TxID != id || reply.Rejected {
		t.Fatalf("reply %+v, want a commit of %v", reply, id)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

// TestTransportRejection: a 429 comes back as a rejection.
func TestTransportRejection(t *testing.T) {
	tr := newTestTransport(t, nil, txServer(t, func(int64) int { return http.StatusTooManyRequests }).URL)
	id := sendTx(tr, 1)
	if reply := recvReply(t, tr); reply.TxID != id || !reply.Rejected {
		t.Fatalf("reply %+v, want a rejection of %v", reply, id)
	}
}

// TestTransportRefusedIsDropped: a POST to a server that is gone
// delivers nothing and is counted as dropped.
func TestTransportRefusedIsDropped(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	tr := newTestTransport(t, nil, url)
	sendTx(tr, 1)
	waitDropped(t, tr, 1)
	noReply(t, tr)
}

// TestTransportOtherStatusIsDropped: a status that is neither a commit
// nor a rejection (504 when the server's commit wait runs out) delivers
// nothing and is counted as dropped.
func TestTransportOtherStatusIsDropped(t *testing.T) {
	tr := newTestTransport(t, nil, txServer(t, func(int64) int { return http.StatusGatewayTimeout }).URL)
	sendTx(tr, 1)
	waitDropped(t, tr, 1)
	noReply(t, tr)
}

// TestTransportLimitIsShared: Transports sharing a Limit keep at most
// MaxInFlight POSTs outstanding and MaxQueued sends waiting between
// them; the next send is dropped and counted at once, and every
// admitted one replies once the server answers.
func TestTransportLimitIsShared(t *testing.T) {
	const admitted = MaxInFlight + MaxQueued
	entered := make(chan struct{}, admitted)
	srv, release := blockingServer(t, entered)
	limit := NewLimit()
	trs := []*Transport{newTestTransport(t, limit, srv.URL), newTestTransport(t, limit, srv.URL)}
	for i := 0; i < admitted; i++ {
		sendTx(trs[i%2], uint64(i+1))
	}
	for i := 0; i < MaxInFlight; i++ {
		<-entered
	}
	select {
	case <-entered:
		t.Fatal("a queued send reached the server past the in-flight bound")
	case <-time.After(50 * time.Millisecond):
	}
	sendTx(trs[1], admitted+1)
	if trs[0].Dropped() != 0 || trs[1].Dropped() != 1 {
		t.Fatalf("dropped = %d, %d; want only the send past the shared bound",
			trs[0].Dropped(), trs[1].Dropped())
	}
	release()
	for i := 0; i < admitted; i++ {
		if reply := recvReply(t, trs[i%2]); reply.Rejected {
			t.Fatalf("held POST came back rejected: %+v", reply)
		}
	}
}

// TestClosedLoopAboveMaxInFlight: a closed loop over an unlimited
// Transport keeps one POST outstanding per worker, however many workers
// it runs: the server sees all of them at once and nothing is dropped.
func TestClosedLoopAboveMaxInFlight(t *testing.T) {
	const workers = MaxInFlight + 32
	var held atomic.Int64
	all := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold each request until every worker has one outstanding.
		if held.Add(1) == workers {
			close(all)
		}
		select {
		case <-all:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	tr := NewTransport(1, []string{srv.URL}, 10*time.Second, nil)
	cl := client.New(tr, 1, 0, 1)
	defer cl.Stop()
	cl.RunClosedLoop(workers, 10*time.Second)
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("server saw %d concurrent requests, want %d", held.Load(), workers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cl.Committed() < 2*workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cl.Committed() < 2*workers || tr.Dropped() != 0 || cl.Shed() != 0 {
		t.Fatalf("committed %d dropped %d shed %d, want >= %d, 0, 0",
			cl.Committed(), tr.Dropped(), cl.Shed(), 2*workers)
	}
}

// TestTransportCloseAbortsBlockedPost: Close returns promptly while a
// POST waits on a commit, delivers nothing for it, counts no drop, and
// closes the inbox.
func TestTransportCloseAbortsBlockedPost(t *testing.T) {
	entered := make(chan struct{}, 1)
	srv, _ := blockingServer(t, entered)
	tr := NewTransport(7, []string{srv.URL}, time.Minute, nil)
	sendTx(tr, 1)
	<-entered
	done := make(chan struct{})
	go func() {
		_ = tr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind an outstanding POST")
	}
	if _, open := <-tr.Inbox(); open {
		t.Fatal("inbox still open after Close")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0 for an aborted POST", tr.Dropped())
	}
}

// TestClientRetriesRejectionOverHTTP: a client.Client over the
// transport retries a 429'd transaction and commits it on the retry,
// the same way it does in-process.
func TestClientRetriesRejectionOverHTTP(t *testing.T) {
	srv := txServer(t, func(n int64) int {
		if n == 1 {
			return http.StatusTooManyRequests
		}
		return http.StatusOK
	})
	cl := client.New(NewTransport(1, []string{srv.URL}, 2*time.Second, nil), 1, 0, 1)
	defer cl.Stop()
	if !cl.SubmitAndWait(2 * time.Second) {
		t.Fatal("transaction did not commit")
	}
	if cl.Retries() == 0 || cl.Rejected() != 1 || cl.Committed() != 1 {
		t.Fatalf("retries %d rejected %d committed %d, want >0, 1, 1",
			cl.Retries(), cl.Rejected(), cl.Committed())
	}
}

package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// The open-loop bound of a fleet deployment: at most MaxInFlight POSTs
// outstanding across all of its clients, and up to MaxQueued more
// sends waiting for one of them.
const (
	MaxInFlight = 128
	MaxQueued   = 1024
)

// Limit holds that bound for every Transport that shares it. A send
// past both MaxInFlight and MaxQueued is dropped.
type Limit struct {
	slots    chan struct{} // one per POST outstanding
	admitted chan struct{} // one per send outstanding or waiting
}

// NewLimit returns a bound with nothing outstanding.
func NewLimit() *Limit {
	return &Limit{make(chan struct{}, MaxInFlight), make(chan struct{}, MaxInFlight+MaxQueued)}
}

// Transport is the client side of POST /tx: a network.Transport over
// which a client.Client drives replicas' HTTP APIs the way it drives an
// in-process endpoint. Send POSTs a RequestMsg's command to the
// replica's /tx without blocking the caller, and the response comes
// back on Inbox as a ReplyMsg carrying the sender's own TxID (the
// server mints its own, which never leaves it): a 200 is a commit, a
// 429 a rejection. A POST that fails, times out or gets any other
// status delivers nothing, so the client's waiter expires exactly as it
// does against a crashed in-process replica.
//
// An optional Limit bounds the outstanding POSTs; a closed loop needs
// none, since it keeps one request in flight per worker. A send past
// the limit, and every POST that got no answer, counts in Dropped.
type Transport struct {
	self    types.NodeID
	urls    []string // replica i+1's POST /tx URL
	httpc   *http.Client
	limit   *Limit
	inbox   chan network.Envelope
	dropped metrics.Counter

	ctx    context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewTransport creates a client endpoint named self over the replicas
// at the given API base URLs (replica i+1 at urls[i]). timeout bounds
// each POST, commit wait included; limit, when not nil, bounds the
// POSTs outstanding.
func NewTransport(self types.NodeID, urls []string, timeout time.Duration, limit *Limit) *Transport {
	// Keep the connections of concurrent POSTs alive between requests
	// instead of re-dialling past the default two idle ones per host.
	rt := http.DefaultTransport.(*http.Transport).Clone()
	rt.MaxIdleConns = 0
	rt.MaxIdleConnsPerHost = MaxInFlight
	t := &Transport{
		self:  self,
		httpc: &http.Client{Timeout: timeout, Transport: rt},
		limit: limit,
		inbox: make(chan network.Envelope, MaxInFlight),
	}
	for _, u := range urls {
		t.urls = append(t.urls, u+"/tx")
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	return t
}

// Self returns the client's node ID.
func (t *Transport) Self() types.NodeID { return t.self }

// Dropped counts sends that never got an answer: over the limit, or
// the POST failed (refused, reset, timed out) or got a status other
// than 200 and 429.
func (t *Transport) Dropped() uint64 { return t.dropped.Load() }

// Send submits a RequestMsg's transaction to replica to; other
// messages have no HTTP form and are ignored.
func (t *Transport) Send(to types.NodeID, msg any) {
	req, ok := msg.(types.RequestMsg)
	if !ok || to < 1 || int(to) > len(t.urls) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if t.limit != nil {
		select {
		case t.limit.admitted <- struct{}{}:
		default:
			t.dropped.Add(1)
			return
		}
	}
	t.wg.Add(1)
	go t.post(to, req.Tx)
}

// Broadcast submits to every replica.
func (t *Transport) Broadcast(msg any) {
	for i := range t.urls {
		t.Send(types.NodeID(i+1), msg)
	}
}

// Inbox streams the replies.
func (t *Transport) Inbox() <-chan network.Envelope { return t.inbox }

// post waits for a slot under the limit, runs one POST /tx and
// delivers its outcome.
func (t *Transport) post(to types.NodeID, tx types.Transaction) {
	defer t.wg.Done()
	if l := t.limit; l != nil {
		defer func() { <-l.admitted }()
		select {
		case l.slots <- struct{}{}:
		case <-t.ctx.Done():
			return
		}
		defer func() { <-l.slots }()
	}
	reply := types.ReplyMsg{TxID: tx.ID}
	status, err := t.do(t.urls[to-1], tx.Command)
	switch {
	case err != nil:
		if t.ctx.Err() == nil {
			t.dropped.Add(1)
		}
		return
	case status == http.StatusTooManyRequests:
		reply.Rejected = true
	case status != http.StatusOK:
		// The server's own commit wait ran out (504), or it refused
		// the request.
		t.dropped.Add(1)
		return
	}
	select {
	case t.inbox <- network.Envelope{From: to, Msg: reply}:
	case <-t.ctx.Done():
	}
}

// do POSTs command to url and returns the response status.
func (t *Transport) do(url string, command []byte) (int, error) {
	body, err := json.Marshal(txRequest{Command: command})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(t.ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.httpc.Do(req)
	if err != nil {
		return 0, err
	}
	// Drain the body so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, nil
}

// Close aborts every outstanding or waiting POST, waits for them, and
// closes the inbox.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.cancel()
	t.wg.Wait()
	t.httpc.CloseIdleConnections()
	close(t.inbox)
	return nil
}

package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

// gaugeValue reads one unlabelled series from the replica's /metrics
// exposition.
func gaugeValue(t *testing.T, n *Node, name string) string {
	t.Helper()
	var b bytes.Buffer
	if err := n.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s not exposed", name)
	return ""
}

// TestPendingSetGauges: signed future-view votes and timeouts from one
// replica each open an aggregation set the current view never prunes,
// and the loop publishes both counts to /metrics.
func TestPendingSetGauges(t *testing.T) {
	s := authScheme(t, "hmac")
	node := authNode(t, s)
	const sender, views = types.NodeID(1), 5
	for i := 0; i < views; i++ {
		view := types.View(1000 + i)
		id := types.Hash{byte(i + 1)}
		vsig, err := s.Sign(sender, types.SigningDigest(view, id))
		if err != nil {
			t.Fatal(err)
		}
		node.dispatch(sender, types.VoteMsg{Vote: &types.Vote{View: view, BlockID: id, Voter: sender, Sig: vsig}})
		tsig, err := s.Sign(sender, types.TimeoutDigest(view))
		if err != nil {
			t.Fatal(err)
		}
		node.dispatch(sender, types.TimeoutMsg{Timeout: &types.Timeout{View: view, Voter: sender, Sig: tsig}})
	}
	want := fmt.Sprint(views)
	if got := gaugeValue(t, node, "bamboo_pending_vote_sets"); got != want {
		t.Fatalf("bamboo_pending_vote_sets %s, want %s", got, want)
	}
	if got := gaugeValue(t, node, "bamboo_pending_timeout_sets"); got != want {
		t.Fatalf("bamboo_pending_timeout_sets %s, want %s", got, want)
	}
}

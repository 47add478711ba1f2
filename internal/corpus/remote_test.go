package corpus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeNode is a shard node that answers every /shard/query with body and
// accepts every bound push.
func fakeNode(t *testing.T, body string) *RemoteShard {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/query" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return NewRemoteShard(ts.URL, RemoteShardConfig{Retries: -1})
}

// TestGatherRejectsDisorderedNode: a node whose hit lines do not ascend
// strictly in (cost, doc, root) fails its part of the query. Unchecked,
// the reordered stream is hung up on at its cost-5 line before it sends
// its cost-0 hit, and the repeated line fills the ranking twice; either
// way the gather would return a wrong ranking not flagged partial.
func TestGatherRejectsDisorderedNode(t *testing.T) {
	const done = `{"done":true,"hits":4}` + "\n"
	for _, tc := range []struct {
		name, body string
		n          int
	}{
		{"reordered", `{"doc":0,"root":1,"cost":2}
{"doc":0,"root":2,"cost":1}
{"doc":0,"root":3,"cost":5}
{"doc":0,"root":4,"cost":0}
` + done, 1},
		{"duplicated", `{"doc":0,"root":1,"cost":0}
{"doc":0,"root":1,"cost":0}
` + done, 2},
	} {
		node := fakeNode(t, tc.body)
		cq := ClusterQuery{ID: "t", Query: "a", N: tc.n}
		res, err := NewCluster([]Node{node}, ClusterConfig{}).Search(context.Background(), cq, nil)
		if err != nil {
			t.Fatalf("%s: fail-open gather: %v", tc.name, err)
		}
		if !res.Partial || !strings.Contains(res.Nodes[0].Err, "order") {
			t.Fatalf("%s: partial %v, node error %q; want partial with an order error (hits %v)",
				tc.name, res.Partial, res.Nodes[0].Err, hitsOf(res.Hits))
		}
		_, err = NewCluster([]Node{node}, ClusterConfig{FailClosed: true}).Search(context.Background(), cq, nil)
		var ne *NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("%s: fail-closed gather returned %v, want a *NodeError", tc.name, err)
		}
	}
}

// TestGatherRejectsMalformedHit: a hit line that lacks doc, root or cost,
// or holds a negative one, fails the node's part of the query. Unchecked,
// each of these lines is read as a hit on document 0 or on a document and
// root that do not exist, and the gather returns it unflagged.
func TestGatherRejectsMalformedHit(t *testing.T) {
	const done = `{"done":true,"hits":1}` + "\n"
	for _, line := range []string{`{}`, `null`, `{"doc":-3,"root":-1,"cost":-7}`, `{"doc":0,"root":1}`} {
		node := fakeNode(t, line+"\n"+done)
		cq := ClusterQuery{ID: "t", Query: "a", N: 5}
		res, err := NewCluster([]Node{node}, ClusterConfig{}).Search(context.Background(), cq, nil)
		if err != nil {
			t.Fatalf("%s: fail-open gather: %v", line, err)
		}
		if !res.Partial || len(res.Hits) != 0 || !strings.Contains(res.Nodes[0].Err, "malformed hit") {
			t.Fatalf("%s: partial %v, node error %q, hits %v; want partial with a malformed-hit error and no hits",
				line, res.Partial, res.Nodes[0].Err, hitsOf(res.Hits))
		}
	}
}

// FuzzShardStream feeds arbitrary response bodies to the gatherer's
// stream reader: it must not panic, and it either fails or delivers a
// strictly ascending, duplicate-free hit sequence from a body that holds
// a done line.
func FuzzShardStream(f *testing.F) {
	for _, seed := range []string{
		`{"doc":0,"root":1,"cost":0}` + "\n" + `{"doc":1,"root":0,"cost":0,"path":"/a"}` + "\n" + `{"done":true,"hits":2,"strategy":"schema","shards":2}` + "\n",
		`{"doc":0,"root":2,"cost":1}` + "\n" + `{"doc":0,"root":1,"cost":1}` + "\n" + `{"done":true}` + "\n",
		`{"doc":0,"root":1,"cost":0}` + "\n" + `{"doc":0,"root":1,"cost":0}` + "\n" + `{"done":true}` + "\n",
		`{"doc":0,"root":1,"cost":0}` + "\n",
		`{"done":true,"error":"boom"}` + "\n",
		`{"doc":0,"root":1,"cost":` + "\n",
		`{}` + "\n" + `{"done":true}` + "\n",
		`null` + "\n" + `{"done":true}` + "\n",
		`{"doc":-3,"root":-1,"cost":-7}` + "\n" + `{"done":true}` + "\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got []Hit
		var info NodeInfo
		err := readShardStream(bytes.NewReader(body), func() {}, func(h ClusterHit) bool {
			got = append(got, h.Hit)
			return true
		}, &info)
		if err != nil {
			return
		}
		for _, h := range got {
			if h.Doc < 0 || h.Root < 0 || h.Cost < 0 {
				t.Fatalf("accepted hit %+v with a negative field", h)
			}
		}
		for i := 1; i < len(got); i++ {
			if !less(got[i-1], got[i]) {
				t.Fatalf("accepted %v after %v", got[i], got[i-1])
			}
		}
		if info.Hits != len(got) || info.Stopped {
			t.Fatalf("info %+v over %d delivered hits", info, len(got))
		}
		for _, line := range bytes.Split(body, []byte("\n")) {
			var l struct{ Done bool }
			if json.Unmarshal(bytes.TrimSpace(line), &l) == nil && l.Done {
				return
			}
		}
		t.Fatal("accepted a body without a done line")
	})
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

const ghzQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
`

// testCluster is a router fronting real serve backends, all on httptest.
type testCluster struct {
	t        *testing.T
	router   *Router
	routerHS *httptest.Server
	backends []*httptest.Server
	servers  []*serve.Server
}

func startCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{Workers: 1})
		hs := httptest.NewServer(s.Handler())
		tc.servers = append(tc.servers, s)
		tc.backends = append(tc.backends, hs)
		cfg.Backends = append(cfg.Backends, hs.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.routerHS = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		tc.routerHS.Close()
		rt.Close()
		for i, hs := range tc.backends {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			tc.servers[i].Shutdown(ctx)
			cancel()
		}
	})
	return tc
}

func (tc *testCluster) submit(body any) (*http.Response, []byte) {
	tc.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := http.Post(tc.routerHS.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		tc.t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func (tc *testCluster) get(path string) (int, []byte) {
	tc.t.Helper()
	resp, err := http.Get(tc.routerHS.URL + path)
	if err != nil {
		tc.t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out
}

func (tc *testCluster) await(id string) serve.JobStatus {
	tc.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := tc.get("/v1/jobs/" + id)
		if code != http.StatusOK {
			tc.t.Fatalf("status %s: HTTP %d: %s", id, code, body)
		}
		var st serve.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			tc.t.Fatalf("status %s: %v in %s", id, err, body)
		}
		if st.Status != serve.StatusQueued && st.Status != serve.StatusRunning {
			return st
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("job %s never finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHashAffinityPinsIdenticalSubmissions(t *testing.T) {
	tc := startCluster(t, 3, Config{})
	req := serve.JobRequest{QASM: ghzQASM, Shots: 8}
	resp, body := tc.submit(req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	backend := resp.Header.Get(HeaderBackend)
	if backend == "" || resp.Header.Get(HeaderHash) == "" {
		t.Fatalf("routing headers missing: %v", resp.Header)
	}
	if got := resp.Header.Get(HeaderRoute); got != RouteHash {
		t.Errorf("route header %q, want %q", got, RouteHash)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, backend+idSep) {
		t.Fatalf("routed id %q lacks backend prefix %q", st.ID, backend)
	}
	final := tc.await(st.ID)
	if final.Status != serve.StatusDone {
		t.Fatalf("job ended %q: %s", final.Status, final.Error)
	}

	// Identical resubmissions pin to the same backend and hit its cache.
	for i := 0; i < 3; i++ {
		resp2, body2 := tc.submit(req)
		if got := resp2.Header.Get(HeaderBackend); got != backend {
			t.Fatalf("resubmission routed to %q, first went to %q", got, backend)
		}
		var st2 serve.JobStatus
		json.Unmarshal(body2, &st2)
		if !st2.Cached || st2.Status != serve.StatusDone {
			t.Fatalf("resubmission %d missed the cache: %s", i, body2)
		}
	}

	// The result routes by prefix and carries the payload.
	code, res := tc.get("/v1/jobs/" + st.ID + "/result")
	if code != http.StatusOK || !strings.Contains(string(res), `"num_qubits":3`) {
		t.Fatalf("result: HTTP %d: %s", code, res)
	}

	// Cluster stats see exactly one backend with cache hits.
	code, raw := tc.get("/v1/cluster/stats")
	if code != http.StatusOK {
		t.Fatalf("cluster stats: HTTP %d", code)
	}
	var cs ClusterStats
	if err := json.Unmarshal(raw, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Up != 3 || cs.Routed != 4 || cs.CacheHits != 3 {
		t.Errorf("cluster stats up=%d routed=%d hits=%d, want 3/4/3: %s", cs.Up, cs.Routed, cs.CacheHits, raw)
	}
	withHits := 0
	for _, b := range cs.Backends {
		if b.CacheHits > 0 {
			withHits++
			if b.Name != backend {
				t.Errorf("cache hits on %q, submissions went to %q", b.Name, backend)
			}
		}
	}
	if withHits != 1 {
		t.Errorf("%d backends saw cache hits, want exactly 1 (affinity)", withHits)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	tc := startCluster(t, 2, Config{RouteMode: RouteRR})
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		req := serve.JobRequest{QASM: ghzQASM, Seed: int64(i + 1)}
		resp, body := tc.submit(req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		seen[resp.Header.Get(HeaderBackend)]++
	}
	if len(seen) != 2 || seen["b0"] != 2 || seen["b1"] != 2 {
		t.Errorf("round-robin distribution %v, want 2/2", seen)
	}
}

func TestUnknownJobIDsAre404(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	if code, _ := tc.get("/v1/jobs/job-000001"); code != http.StatusNotFound {
		t.Errorf("unprefixed id: HTTP %d, want 404", code)
	}
	if code, _ := tc.get("/v1/jobs/zz.job-000001"); code != http.StatusNotFound {
		t.Errorf("unknown backend prefix: HTTP %d, want 404", code)
	}
	// A well-formed prefix with an unknown local id proxies the backend 404.
	if code, _ := tc.get("/v1/jobs/b0.job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown local id: HTTP %d, want 404", code)
	}
}

// TestQueueFullPropagatesWithoutFailover pins the backpressure contract: a
// backend's queue-full 503 is relayed verbatim (Retry-After and envelope
// intact) instead of being rerouted to a backend that will never own the
// hash.
func TestQueueFullPropagatesWithoutFailover(t *testing.T) {
	var otherHits atomic.Int64
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"queue full","code":"queue_full","queue_depth":9,"retry_after_ms":7000}`)
	}))
	defer full.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			otherHits.Add(1)
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer other.Close()

	// Both ring orders start at the "full" backend for whichever hash the
	// GHZ submission produces, because the other backend is only reachable
	// through failover — so pin the order by making "full" every candidate's
	// primary: use a 2-backend ring and try until the submission routes to
	// it (deterministic for a fixed circuit, so just flip the backend list
	// if needed).
	for _, backends := range [][]string{{full.URL, other.URL}, {other.URL, full.URL}} {
		rt, err := New(Config{Backends: backends, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(rt.Handler())
		otherHits.Store(0) // only hits from THIS ordering's submission count
		raw, _ := json.Marshal(serve.JobRequest{QASM: ghzQASM})
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		hs.Close()
		rt.Close()
		fullName := "b0"
		if backends[0] != full.URL {
			fullName = "b1"
		}
		if resp.Header.Get(HeaderBackend) != fullName {
			continue // this ordering routed the hash to the healthy backend
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("queue-full relay: HTTP %d: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") != "7" {
			t.Errorf("Retry-After %q not propagated", resp.Header.Get("Retry-After"))
		}
		if !strings.Contains(string(body), `"code":"queue_full"`) ||
			!strings.Contains(string(body), `"queue_depth":9`) {
			t.Errorf("backpressure envelope not propagated verbatim: %s", body)
		}
		if n := otherHits.Load(); n != 0 {
			t.Errorf("queue-full was failed over to the other backend (%d hits)", n)
		}
		return
	}
	t.Fatal("submission never routed to the saturated backend under either ordering")
}

// TestFailoverAndShed kills backends and watches routing degrade gracefully:
// first failover to the ring successor, then load-shedding with a retriable
// envelope once nothing is reachable.
func TestFailoverAndShed(t *testing.T) {
	tc := startCluster(t, 2, Config{ProbeInterval: 15 * time.Millisecond, MarkDownAfter: 2, MarkUpAfter: 2})
	req := serve.JobRequest{QASM: ghzQASM}
	resp, body := tc.submit(req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	primary := resp.Header.Get(HeaderBackend)
	var st serve.JobStatus
	json.Unmarshal(body, &st)
	tc.await(st.ID)

	// Kill the primary abruptly (connection-refused from now on).
	for i, hs := range tc.backends {
		if tc.router.members[i].name == primary {
			hs.CloseClientConnections()
			hs.Close()
		}
	}

	// The same submission now fails over to the survivor (the first attempt
	// may pay one transport error; the router reroutes within the request).
	resp2, body2 := tc.submit(req)
	if resp2.StatusCode != http.StatusAccepted && resp2.StatusCode != http.StatusOK {
		t.Fatalf("failover submit: HTTP %d: %s", resp2.StatusCode, body2)
	}
	survivor := resp2.Header.Get(HeaderBackend)
	if survivor == primary {
		t.Fatalf("submission still routed to dead backend %q", primary)
	}
	if got := resp2.Header.Get(HeaderRoute); got != "failover" {
		t.Errorf("route header %q, want failover", got)
	}
	var st2 serve.JobStatus
	json.Unmarshal(body2, &st2)
	final := tc.await(st2.ID)
	if final.Status != serve.StatusDone {
		t.Fatalf("failover job ended %q: %s", final.Status, final.Error)
	}

	// The prober marks the dead backend down (visible in stats), after which
	// job-scoped requests against it come back retriable.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, raw := tc.get("/v1/cluster/stats")
		if code != http.StatusOK {
			t.Fatalf("cluster stats: HTTP %d", code)
		}
		var cs ClusterStats
		if err := json.Unmarshal(raw, &cs); err != nil {
			t.Fatal(err)
		}
		if cs.Down == 1 && cs.Up == 1 {
			if cs.Rerouted < 1 {
				t.Errorf("rerouted counter %d, want >= 1", cs.Rerouted)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mark-down never reflected in stats: %s", raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, raw := tc.get("/v1/jobs/" + st.ID)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(raw), CodeBackendDown) {
		t.Errorf("job on dead backend: HTTP %d %s, want 503 %s", code, raw, CodeBackendDown)
	}

	// Kill the survivor too: submissions shed with a retriable envelope once
	// the prober notices.
	for i, hs := range tc.backends {
		if tc.router.members[i].name == survivor {
			hs.CloseClientConnections()
			hs.Close()
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp3, body3 := tc.submit(req)
		if resp3.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body3), CodeNoBackend) {
			if resp3.Header.Get("Retry-After") == "" {
				t.Error("shed response lacks Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never shed: HTTP %d: %s", resp3.StatusCode, body3)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Router health reflects the dead cluster once the prober's hysteresis
	// marks the survivor down (shedding via in-request transport failures can
	// precede the membership flip, so poll).
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, _ = tc.get("/healthz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("router healthz with all backends down: HTTP %d, want 503", code)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st3 := tc.router.Stats(context.Background())
	if st3.Shed < 1 {
		t.Errorf("shed counter %d, want >= 1", st3.Shed)
	}
}

// TestEventsProxyStreams pins SSE proxying: the routed events endpoint
// replays the backend stream including the terminal status frame.
func TestEventsProxyStreams(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	resp, body := tc.submit(serve.JobRequest{QASM: ghzQASM})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st serve.JobStatus
	json.Unmarshal(body, &st)
	tc.await(st.ID)
	code, stream := tc.get("/v1/jobs/" + st.ID + "/events")
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d", code)
	}
	if !strings.Contains(string(stream), "event: gate") ||
		!strings.Contains(string(stream), `"status":"done"`) {
		t.Errorf("proxied stream incomplete: %s", stream)
	}
}

func TestListMergesBackends(t *testing.T) {
	tc := startCluster(t, 2, Config{RouteMode: RouteRR})
	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		_, body := tc.submit(serve.JobRequest{QASM: ghzQASM, Seed: int64(i + 1)})
		var st serve.JobStatus
		json.Unmarshal(body, &st)
		ids[st.ID] = true
		tc.await(st.ID)
	}
	code, raw := tc.get("/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	var l struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2: %s", len(l.Jobs), raw)
	}
	for _, j := range l.Jobs {
		if !ids[j.ID] {
			t.Errorf("listed id %q was never returned to a client", j.ID)
		}
	}
}

func TestRouterRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := New(Config{Backends: []string{"http://x"}, RouteMode: "zigzag"}); err == nil {
		t.Error("unknown route mode accepted")
	}
	if _, err := New(Config{Backends: []string{"http://x"}, Names: []string{"a.b"}}); err == nil {
		t.Error("dotted backend name accepted")
	}
	if _, err := New(Config{Backends: []string{"http://x", "http://y"}, Names: []string{"a"}}); err == nil {
		t.Error("name/backend length mismatch accepted")
	}
}

func TestBadSubmissionsRejectedAtTheRouter(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	resp, body := tc.submit(map[string]any{"qasm": ghzQASM, "sots": 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = tc.submit(map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty submission: HTTP %d: %s", resp.StatusCode, body)
	}
	// Strategy parameters travel only in strategy_params.
	for _, key := range []string{"threshold", "growth", "round_fidelity", "final_fidelity"} {
		resp, body = tc.submit(map[string]any{"qasm": ghzQASM, "strategy": "memory", key: 0.9})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("top-level %q: HTTP %d: %s", key, resp.StatusCode, body)
		}
	}
}

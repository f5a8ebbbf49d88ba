package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
)

// inlineRequest converts a circuit into an inline-gates submission.
func inlineRequest(name string, c *circuit.Circuit) JobRequest {
	req := JobRequest{Name: name, Qubits: c.NumQubits}
	for _, g := range c.Gates() {
		gs := GateSpec{Name: g.Name, Params: g.Params, Target: g.Target}
		for _, ctl := range g.Controls {
			if ctl.Positive {
				gs.Controls = append(gs.Controls, ctl.Qubit)
			} else {
				gs.NegControls = append(gs.NegControls, ctl.Qubit)
			}
		}
		req.Gates = append(req.Gates, gs)
	}
	return req
}

// readSSE fetches an event stream and parses every frame.
func (c *client) readSSE(path string) []Event {
	c.t.Helper()
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		c.t.Fatalf("events: content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			c.t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, e)
		if e.Type == EventStatus {
			break
		}
	}
	if err := sc.Err(); err != nil {
		c.t.Fatal(err)
	}
	return events
}

func TestEventsStreamReplaysFinishedJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, EventBufferSize: 4096})
	circ := gen.RandomCliffordT(10, 200, 3)
	req := inlineRequest("events", circ)
	req.Strategy = StrategyMemory
	req.StrategyParams = json.RawMessage(`{"threshold":16,"round_fidelity":0.97}`)
	st := c.submit(req, http.StatusAccepted)
	if got := c.await(st.ID); got.Status != StatusDone {
		t.Fatalf("job ended %q: %s", got.Status, got.Error)
	}

	events := c.readSSE("/v1/jobs/" + st.ID + "/events")
	counts := map[string]int{}
	lastSeq := int64(-1)
	for _, e := range events {
		counts[e.Type]++
		if e.Seq <= lastSeq {
			t.Fatalf("event seq not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Dropped != 0 {
			t.Errorf("gapless stream reported %d dropped at seq %d", e.Dropped, e.Seq)
		}
	}
	if counts[EventGate] != circ.Len() {
		t.Errorf("%d gate events for %d gates", counts[EventGate], circ.Len())
	}
	if counts[EventApproximation] == 0 {
		t.Error("no approximation events; workload or threshold is wrong")
	}
	if counts[EventFinish] != 1 || counts[EventStatus] != 1 {
		t.Errorf("finish/status events: %v", counts)
	}
	last := events[len(events)-1]
	if last.Type != EventStatus || last.Status != StatusDone {
		t.Errorf("terminal event %+v", last)
	}

	// Approximation events must match the result's rounds.
	var res ResultPayload
	code, body := c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if counts[EventApproximation] != len(res.Rounds) {
		t.Errorf("%d approximation events vs %d result rounds", counts[EventApproximation], len(res.Rounds))
	}
}

func TestEventsStreamWhileRunning(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, EventBufferSize: 1 << 14})
	// Big enough that the stream very likely attaches mid-run, small enough
	// to finish promptly; correctness does not depend on the race since the
	// bounded buffer replays whatever was missed.
	req := inlineRequest("live-stream", gen.RandomCliffordT(11, 600, 1))
	req.Strategy = StrategyMemory
	req.StrategyParams = json.RawMessage(`{"threshold":64,"round_fidelity":0.95}`)
	st := c.submit(req, http.StatusAccepted)
	// Connect immediately — the stream must deliver live events and then
	// the terminal status without the client ever polling.
	events := c.readSSE("/v1/jobs/" + st.ID + "/events")
	last := events[len(events)-1]
	if last.Type != EventStatus {
		t.Fatalf("stream ended without terminal status: %+v", last)
	}
	if last.Status != StatusDone {
		t.Fatalf("job ended %q: %s", last.Status, last.Error)
	}
	gates := 0
	for _, e := range events {
		if e.Type == EventGate {
			gates++
		}
	}
	if gates == 0 {
		t.Error("live stream delivered no gate events")
	}
}

func TestEventsCachedJobStreamsTerminalOnly(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := JobRequest{Name: "cached-events", QASM: ghzQASM}
	st := c.submit(req, http.StatusAccepted)
	c.await(st.ID)
	st2 := c.submit(req, http.StatusOK)
	if !st2.Cached {
		t.Fatal("repeat submission missed the cache")
	}
	events := c.readSSE("/v1/jobs/" + st2.ID + "/events")
	if len(events) != 1 || events[0].Type != EventStatus || events[0].Status != StatusDone {
		t.Errorf("cached job stream: %+v", events)
	}
}

func TestEventsUnknownJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	code, _ := c.do("GET", "/v1/jobs/nope/events", nil)
	if code != http.StatusNotFound {
		t.Errorf("HTTP %d for unknown job events", code)
	}
}

func TestEventsBoundedBufferReportsGap(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, EventBufferSize: 16})
	circ := gen.QFT(8) // 64 gates: far more events than the ring holds
	st := c.submit(inlineRequest("bounded", circ), http.StatusAccepted)
	if got := c.await(st.ID); got.Status != StatusDone {
		t.Fatalf("job ended %q", got.Status)
	}
	events := c.readSSE("/v1/jobs/" + st.ID + "/events")
	if len(events) > 16 {
		t.Errorf("stream delivered %d events from a 16-slot ring", len(events))
	}
	if events[0].Dropped == 0 {
		t.Errorf("evicted events not reported: first event %+v", events[0])
	}
	if last := events[len(events)-1]; last.Type != EventStatus {
		t.Errorf("terminal event %+v", last)
	}
}

func TestEventsResumeFromCursor(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, EventBufferSize: 4096})
	st := c.submit(inlineRequest("resume", gen.QFT(6)), http.StatusAccepted)
	if got := c.await(st.ID); got.Status != StatusDone {
		t.Fatalf("job ended %q", got.Status)
	}
	all := c.readSSE("/v1/jobs/" + st.ID + "/events")
	if len(all) < 4 {
		t.Fatalf("too few events to test resume: %d", len(all))
	}
	cut := all[len(all)-3]
	tail := c.readSSE(fmt.Sprintf("/v1/jobs/%s/events?from=%d", st.ID, cut.Seq+1))
	if len(tail) != 2 {
		t.Fatalf("resume from %d returned %d events, want 2", cut.Seq+1, len(tail))
	}
	if tail[0].Seq != cut.Seq+1 {
		t.Errorf("resume started at seq %d, want %d", tail[0].Seq, cut.Seq+1)
	}
}

// trimEvery is a user-defined strategy for the end-to-end registry test: it
// approximates to a fixed round fidelity every `period` gates.
type trimEvery struct {
	Period int     `json:"period"`
	Round  float64 `json:"round_fidelity"`
}

func (s *trimEvery) Name() string { return "trim-every" }

func (s *trimEvery) Init(total int, blocks []int) error {
	if s.Period <= 0 {
		return fmt.Errorf("trim-every: period %d must be positive", s.Period)
	}
	if s.Round <= 0 || s.Round > 1 {
		return fmt.Errorf("trim-every: round fidelity %v outside (0, 1]", s.Round)
	}
	return nil
}

func (s *trimEvery) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	if (gateIdx+1)%s.Period != 0 {
		return state, nil, nil
	}
	ne, rep, err := core.ApproximateToFidelity(m, state, s.Round)
	if err != nil || rep.NoOp() {
		return state, nil, err
	}
	return ne, &core.Round{GateIndex: gateIdx, Report: rep}, nil
}

func init() {
	if err := core.RegisterStrategy("trim-every", func(params json.RawMessage) (core.Strategy, error) {
		s := &trimEvery{}
		if len(params) > 0 {
			if err := json.Unmarshal(params, s); err != nil {
				return nil, err
			}
		}
		return s, nil
	}); err != nil {
		panic(err)
	}
	if err := core.RegisterStrategy("panic-at-gate", func(json.RawMessage) (core.Strategy, error) {
		return panicAtGate{}, nil
	}); err != nil {
		panic(err)
	}
}

func TestRegisteredStrategyUsableOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, EventBufferSize: 4096})
	req := inlineRequest("custom-strategy", gen.RandomCliffordT(10, 160, 5))
	req.Strategy = "trim-every"
	req.StrategyParams = json.RawMessage(`{"period": 40, "round_fidelity": 0.9}`)
	st := c.submit(req, http.StatusAccepted)
	final := c.await(st.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %q: %s", final.Status, final.Error)
	}
	var res ResultPayload
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "trim-every" {
		t.Errorf("result strategy %q", res.Strategy)
	}
	if len(res.Rounds) == 0 {
		t.Error("custom strategy never fired")
	}
	// Its rounds stream as events too.
	approx := 0
	for _, e := range c.readSSE("/v1/jobs/" + st.ID + "/events") {
		if e.Type == EventApproximation {
			approx++
		}
	}
	if approx != len(res.Rounds) {
		t.Errorf("%d approximation events vs %d rounds", approx, len(res.Rounds))
	}
}

// panicAtGate is a registered strategy that panics after its first gate,
// standing in for a faulty in-process user strategy.
type panicAtGate struct{ core.Exact }

func (panicAtGate) AfterGate(*dd.Manager, int, int, dd.VEdge) (dd.VEdge, *core.Round, error) {
	panic("user strategy bug")
}

func TestPanickingStrategyFailsOnlyItsJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := inlineRequest("panicking", gen.QFT(4))
	req.Strategy = "panic-at-gate"
	st := c.submit(req, http.StatusAccepted)
	final := c.await(st.ID)
	if final.Status != StatusFailed {
		t.Fatalf("panicking job ended %q, want %q", final.Status, StatusFailed)
	}
	if !strings.Contains(final.Error, "user strategy bug") {
		t.Errorf("error %q does not carry the panic value", final.Error)
	}
	// The same server (and its single worker) keeps serving.
	ok := c.submit(inlineRequest("after-panic", gen.QFT(4)), http.StatusAccepted)
	if got := c.await(ok.ID); got.Status != StatusDone {
		t.Fatalf("job after the panic ended %q: %s", got.Status, got.Error)
	}
}

func TestRegisteredStrategyBadParamsRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := inlineRequest("bad-params", gen.QFT(4))
	req.Strategy = "trim-every"
	req.StrategyParams = json.RawMessage(`{"period": -1}`)
	if code, body := c.do("POST", "/v1/jobs", req); code != http.StatusBadRequest {
		t.Errorf("invalid params: HTTP %d: %s", code, body)
	}
}

func TestStrategyParamsForBuiltins(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := inlineRequest("builtin-params", gen.QFT(6))
	req.Strategy = StrategyMemory
	req.StrategyParams = json.RawMessage(`{"threshold": 8, "round_fidelity": 0.95}`)
	st := c.submit(req, http.StatusAccepted)
	if got := c.await(st.ID); got.Status != StatusDone {
		t.Fatalf("job ended %q: %s", got.Status, got.Error)
	}

	// strategy_params is the only spelling: the old top-level keys are
	// unknown fields, and unknown keys inside the params are rejected too.
	for _, key := range []string{"threshold", "growth", "round_fidelity", "final_fidelity"} {
		raw := map[string]any{"qasm": ghzQASM, "strategy": StrategyMemory,
			"strategy_params": req.StrategyParams, key: 8}
		if code, body := c.do("POST", "/v1/jobs", raw); code != http.StatusBadRequest {
			t.Errorf("top-level %q: HTTP %d: %s", key, code, body)
		}
	}
	misspelled := req
	misspelled.StrategyParams = json.RawMessage(`{"threshold":8,"round_fidelity":0.95,"growht":3}`)
	if code, body := c.do("POST", "/v1/jobs", misspelled); code != http.StatusBadRequest {
		t.Errorf("misspelled params key: HTTP %d: %s", code, body)
	}

	// Unknown names list what is registered.
	bad := inlineRequest("unknown-strategy", gen.QFT(4))
	bad.Strategy = "does-not-exist"
	code, body := c.do("POST", "/v1/jobs", bad)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "memory") {
		t.Errorf("unknown strategy: HTTP %d: %s", code, body)
	}
}

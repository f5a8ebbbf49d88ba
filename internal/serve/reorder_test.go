package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// pairsRequest is the entangled-pairs workload as an inline submission: the
// scored ordering places each (i, i+n/2) couple adjacently, collapsing the
// identity order's exponential cut.
func pairsRequest(n int, params string) JobRequest {
	req := JobRequest{Name: "pairs", Qubits: n, Strategy: "reorder",
		StrategyParams: json.RawMessage(params)}
	for i := 0; i < n/2; i++ {
		req.Gates = append(req.Gates,
			GateSpec{Name: "h", Target: i},
			GateSpec{Name: "x", Target: i + n/2, Controls: []int{i}})
	}
	return req
}

// TestReorderStrategyOverHTTP submits the same circuit under identity and
// scored orderings via strategy_params, checks the scored job's payload
// reports the order and a smaller peak, and that /v1/stats aggregates the
// reordering activity.
func TestReorderStrategyOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})

	ident := c.submit(pairsRequest(12, `{"order":"identity"}`), http.StatusAccepted)
	st := c.await(ident.ID)
	if st.Status != StatusDone {
		t.Fatalf("identity job: %+v", st)
	}
	var identRes ResultPayload
	if err := json.Unmarshal(st.Result, &identRes); err != nil {
		t.Fatal(err)
	}

	scored := c.submit(pairsRequest(12, `{"order":"scored"}`), http.StatusAccepted)
	st = c.await(scored.ID)
	if st.Status != StatusDone {
		t.Fatalf("scored job: %+v", st)
	}
	var scoredRes ResultPayload
	if err := json.Unmarshal(st.Result, &scoredRes); err != nil {
		t.Fatal(err)
	}

	if len(scoredRes.InitialOrder) != 12 || len(scoredRes.FinalOrder) != 12 {
		t.Fatalf("scored payload missing orders: %+v", scoredRes)
	}
	if scoredRes.MaxDDSize*4 > identRes.MaxDDSize {
		t.Fatalf("scored peak %d vs identity peak %d: ordering had no effect over HTTP",
			scoredRes.MaxDDSize, identRes.MaxDDSize)
	}
	if scoredRes.Strategy != "reorder(scored)+exact" {
		t.Fatalf("strategy name = %q", scoredRes.Strategy)
	}

	stats := c.stats()
	if stats.Reorder.Jobs != 2 {
		t.Fatalf("stats.Reorder.Jobs = %d, want 2", stats.Reorder.Jobs)
	}
}

// TestReorderSiftEventsOverSSE runs a sifting job and expects reorder events
// in the SSE replay plus sift counters in the payload and /v1/stats.
func TestReorderSiftEventsOverSSE(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := pairsRequest(12, `{"order":"identity","sift":true,"sift_threshold":8,"sift_max_passes":3}`)
	st := c.await(c.submit(req, http.StatusAccepted).ID)
	if st.Status != StatusDone {
		t.Fatalf("job: %+v", st)
	}
	var res ResultPayload
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.SiftPasses == 0 || res.SiftSwaps == 0 {
		t.Fatalf("no sifting in payload: %+v", res)
	}

	code, body := c.do("GET", "/v1/jobs/"+st.ID+"/events", nil)
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d", code)
	}
	text := string(body)
	if !strings.Contains(text, "event: reorder") {
		t.Fatalf("no reorder events in SSE replay:\n%s", text)
	}
	var ev Event
	for _, frame := range strings.Split(text, "\n\n") {
		for _, line := range strings.Split(frame, "\n") {
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var e Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Fatal(err)
				}
				if e.Type == EventReorder {
					ev = e
				}
			}
		}
	}
	if ev.Type != EventReorder || ev.Swaps == 0 || len(ev.Order) != 12 || ev.SizeBefore <= ev.Size {
		t.Fatalf("reorder event malformed: %+v", ev)
	}

	if stats := c.stats(); stats.Reorder.SiftPasses == 0 || stats.Reorder.SiftSwaps == 0 {
		t.Fatalf("stats missing sift aggregates: %+v", stats.Reorder)
	}
}

// TestReorderValidationOverHTTP: bad ordering names and unknown parameter
// keys must be 400s at submission, not failed jobs.
func TestReorderValidationOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	code, body := c.do("POST", "/v1/jobs", pairsRequest(6, `{"order":"sideways"}`))
	if code != http.StatusBadRequest {
		t.Fatalf("bad order name: HTTP %d: %s", code, body)
	}
	code, body = c.do("POST", "/v1/jobs", pairsRequest(6, `{"order":"scored","sfit":true}`))
	if code != http.StatusBadRequest {
		t.Fatalf("misspelled reorder key: HTTP %d: %s", code, body)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/atlas"
	"repro/internal/gen"
	"repro/internal/qasm"
)

// TestAutoStrategyEndToEnd is the atlas acceptance path: a QAOA circuit
// submitted over HTTP with strategy=auto must resolve to the committed
// atlas winner for its class (visible in ResultPayload.ResolvedStrategy)
// and be bit-identical to submitting that winner explicitly — same content
// hash, same cache entry, same payload bytes.
func TestAutoStrategyEndToEnd(t *testing.T) {
	circ := gen.QAOAMaxCut(10, 2, 1)
	if got := gen.Classify(circ); got != gen.ClassQAOA {
		t.Fatalf("workload classified %q, want %q", got, gen.ClassQAOA)
	}
	win := atlas.Resolve(gen.ClassQAOA)
	src, err := qasm.Export(circ)
	if err != nil {
		t.Fatal(err)
	}
	autoReq := JobRequest{Name: "qaoa-auto", QASM: src, Strategy: StrategyAuto, Shots: 64}
	explicitReq := JobRequest{Name: "qaoa-explicit", QASM: src, Strategy: win.Strategy, Shots: 64}
	if win.Params != "" {
		explicitReq.StrategyParams = json.RawMessage(win.Params)
	}

	// The content addresses must agree before any server is involved — the
	// cluster router routes auto submissions by the same key as explicit
	// ones.
	autoHash, err := CanonicalHash(autoReq)
	if err != nil {
		t.Fatal(err)
	}
	explicitHash, err := CanonicalHash(explicitReq)
	if err != nil {
		t.Fatal(err)
	}
	if autoHash != explicitHash {
		t.Fatalf("auto hash %s != explicit winner hash %s", autoHash, explicitHash)
	}

	_, c := newTestServer(t, Config{Workers: 2})
	first := c.submit(autoReq, http.StatusAccepted)
	if first.Hash != autoHash {
		t.Fatalf("submitted hash %s, want %s", first.Hash, autoHash)
	}
	if st := c.await(first.ID); st.Status != StatusDone {
		t.Fatalf("auto job ended %q: %s", st.Status, st.Error)
	}
	code, autoBody := c.do("GET", "/v1/jobs/"+first.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, autoBody)
	}
	var payload ResultPayload
	if err := json.Unmarshal(autoBody, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.ResolvedStrategy != win.Strategy {
		t.Fatalf("resolved_strategy %q, want atlas winner %q", payload.ResolvedStrategy, win.Strategy)
	}
	if string(payload.ResolvedStrategyParams) != win.Params {
		t.Fatalf("resolved_strategy_params %s, want %q", payload.ResolvedStrategyParams, win.Params)
	}

	// Submitting the winner explicitly must hit the auto submission's cache
	// entry and return byte-identical results.
	second := c.submit(explicitReq, http.StatusOK)
	if !second.Cached {
		t.Fatal("explicit winner submission missed the auto submission's cache entry")
	}
	if st := c.await(second.ID); st.Status != StatusDone {
		t.Fatalf("explicit job ended %q: %s", st.Status, st.Error)
	}
	code, explicitBody := c.do("GET", "/v1/jobs/"+second.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, explicitBody)
	}
	if !bytes.Equal(autoBody, explicitBody) {
		t.Fatalf("auto and explicit payloads differ:\nauto:     %s\nexplicit: %s", autoBody, explicitBody)
	}
}

// TestAutoStrategyResolvesEveryClass checks resolveAuto against the
// committed table for one representative circuit per workload class.
func TestAutoStrategyResolvesEveryClass(t *testing.T) {
	circs := map[string]func() (string, error){
		"qft":       func() (string, error) { return qasm.Export(gen.QFT(6)) },
		"qaoa":      func() (string, error) { return qasm.Export(gen.QAOAMaxCut(6, 2, 1)) },
		"vqe":       func() (string, error) { return qasm.Export(gen.VQEAnsatz(6, 2, gen.VQELinear, 1)) },
		"cliffordt": func() (string, error) { return qasm.Export(gen.CliffordT(6, 60, 12, 1)) },
	}
	for class, build := range circs {
		src, err := build()
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		req := JobRequest{QASM: src, Strategy: StrategyAuto}
		circ, err := resolveCircuit(req)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		resolved, err := resolveAuto(req, circ)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		win := atlas.Resolve(class)
		if resolved.Strategy != win.Strategy || string(resolved.StrategyParams) != win.Params {
			t.Errorf("%s: resolved (%s, %s), want (%s, %s)",
				class, resolved.Strategy, resolved.StrategyParams, win.Strategy, win.Params)
		}
	}
}

// TestAutoStrategyRejections covers the 400 cases: auto takes no
// parameters and only resolves noiseless statevector jobs.
func TestAutoStrategyRejections(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	base := JobRequest{QASM: ghzQASM, Strategy: StrategyAuto}

	withParams := base
	withParams.StrategyParams = json.RawMessage(`{"threshold":64}`)
	c.submit(withParams, http.StatusBadRequest)

	withNoise := base
	withNoise.Noise = "depolarizing"
	withNoise.NoiseParams = map[string]float64{"p": 0.01}
	c.submit(withNoise, http.StatusBadRequest)

	withDensity := base
	withDensity.Backend = "density"
	c.submit(withDensity, http.StatusBadRequest)

	// The same rejections apply at the routing tier.
	if _, err := CanonicalHash(withParams); err == nil {
		t.Error("CanonicalHash accepted auto with strategy_params")
	}
	if _, err := CanonicalHash(withNoise); err == nil {
		t.Error("CanonicalHash accepted auto with noise")
	}
}

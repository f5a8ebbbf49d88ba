package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestBuiltinStrategiesRegistered(t *testing.T) {
	names := StrategyNames()
	for _, want := range []string{"exact", "memory", "fidelity"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q missing from registry: %v", want, names)
		}
	}
}

func TestNewStrategyByNameBuildsFreshInstances(t *testing.T) {
	params := json.RawMessage(`{"threshold": 64, "round_fidelity": 0.95}`)
	a, err := NewStrategyByName("memory", params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStrategyByName("memory", params)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("factory returned a shared instance; strategies are stateful per run")
	}
	md, ok := a.(*MemoryDriven)
	if !ok {
		t.Fatalf("memory strategy has type %T", a)
	}
	if md.Threshold != 64 || md.RoundFidelity != 0.95 {
		t.Errorf("params not applied: %+v", md)
	}
	if err := md.Init(100, nil); err != nil {
		t.Fatalf("built strategy rejects Init: %v", err)
	}
}

func TestNewStrategyByNameDefaults(t *testing.T) {
	s, err := NewStrategyByName("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "exact" {
		t.Errorf("empty name resolved to %q, want exact", s.Name())
	}
}

func TestNewStrategyByNameUnknown(t *testing.T) {
	_, err := NewStrategyByName("no-such-strategy", nil)
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if !strings.Contains(err.Error(), "exact") {
		t.Errorf("error should list registered names: %v", err)
	}
}

func TestNewStrategyByNameBadParams(t *testing.T) {
	if _, err := NewStrategyByName("memory", json.RawMessage(`{"threshold": "big"}`)); err == nil {
		t.Fatal("malformed params accepted")
	}
}

// TestBuiltinParamsRejectUnknownKeys: a misspelled key must fail rather than
// run with that parameter at its default.
func TestBuiltinParamsRejectUnknownKeys(t *testing.T) {
	for name, params := range map[string]string{
		"memory":   `{"threshold":64,"round_fidelity":0.9,"growht":3}`,
		"fidelity": `{"final_fidelity":0.5,"round_fidelity":0.9,"locatons":[3]}`,
		"replace":  `{"node_budget":8,"fidelty_floor":0.9}`,
	} {
		if _, err := NewStrategyByName(name, json.RawMessage(params)); err == nil {
			t.Errorf("%s accepted %s", name, params)
		}
	}
	if _, err := NewStrategyByName("memory", json.RawMessage(`{"threshold":64,"round_fidelity":0.9} {}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := NewStrategyByName("memory", json.RawMessage(`{"threshold":64,"round_fidelity":0.9,"growth":3}`)); err != nil {
		t.Errorf("well-formed params rejected: %v", err)
	}
}

func TestFidelityParamsPlacementControls(t *testing.T) {
	s, err := NewStrategyByName("fidelity", json.RawMessage(
		`{"final_fidelity": 0.5, "round_fidelity": 0.9, "locations": [3, 7]}`))
	if err != nil {
		t.Fatal(err)
	}
	fd := s.(*FidelityDriven)
	if !fd.PreferLateBlocks {
		t.Error("late-block placement should be the default")
	}
	if err := fd.Init(20, nil); err != nil {
		t.Fatal(err)
	}
	if got := fd.PlannedLocations(); len(got) == 0 || got[0] != 3 {
		t.Errorf("explicit locations ignored: %v", got)
	}
}

func TestRegisterStrategyRejectsDuplicatesAndNil(t *testing.T) {
	if err := RegisterStrategy("exact", func(json.RawMessage) (Strategy, error) { return Exact{}, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterStrategy("", func(json.RawMessage) (Strategy, error) { return Exact{}, nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterStrategy("nil-factory", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

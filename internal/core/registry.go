package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// StrategyFactory builds a fresh Strategy from JSON-encoded parameters.
// Factories must return a new instance on every call (strategies are stateful
// per run) and should reject unknown fields (DecodeParams does) or invalid
// parameters with an error; params may be nil or empty when the caller
// supplied none.
type StrategyFactory func(params json.RawMessage) (Strategy, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]StrategyFactory)
)

// RegisterStrategy makes a strategy constructible by name — in-process via
// NewStrategyByName and over HTTP via the simulation service's `strategy`
// field. Names are case-sensitive; registering an empty name, a nil factory,
// or a name already taken (including the builtins "exact", "memory",
// "fidelity") is an error. The registry is append-only and safe for
// concurrent use.
func RegisterStrategy(name string, factory StrategyFactory) error {
	if name == "" {
		return fmt.Errorf("core: strategy name must be non-empty")
	}
	if factory == nil {
		return fmt.Errorf("core: strategy %q registered with nil factory", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("core: strategy %q already registered", name)
	}
	registry[name] = factory
	return nil
}

// NewStrategyByName builds a fresh strategy instance from its registered
// factory. The empty name selects "exact". The returned strategy has not been
// Init'ed; the simulation driver does that at session start.
func NewStrategyByName(name string, params json.RawMessage) (Strategy, error) {
	if name == "" {
		name = "exact"
	}
	registryMu.RLock()
	factory := registry[name]
	registryMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("core: unknown strategy %q (registered: %v)", name, StrategyNames())
	}
	s, err := factory(params)
	if err != nil {
		return nil, fmt.Errorf("core: strategy %q: %w", name, err)
	}
	if s == nil {
		return nil, fmt.Errorf("core: strategy %q factory returned nil", name)
	}
	return s, nil
}

// StrategyNames returns every registered strategy name, sorted.
func StrategyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MemoryDrivenParams are the JSON parameters of the builtin "memory"
// strategy (Section IV-B). Zero values select MemoryDriven's defaults; the
// threshold itself is validated by Init.
type MemoryDrivenParams struct {
	Threshold     int     `json:"threshold"`
	RoundFidelity float64 `json:"round_fidelity"`
	Growth        float64 `json:"growth,omitempty"`
}

// FidelityDrivenParams are the JSON parameters of the builtin "fidelity"
// strategy (Section IV-C). PreferEarlyBlocks flips the default late-block
// placement; Locations overrides automatic placement entirely.
type FidelityDrivenParams struct {
	FinalFidelity     float64 `json:"final_fidelity"`
	RoundFidelity     float64 `json:"round_fidelity"`
	PreferEarlyBlocks bool    `json:"prefer_early_blocks,omitempty"`
	Locations         []int   `json:"locations,omitempty"`
}

// ReplaceDrivenParams are the JSON parameters of the builtin "replace"
// strategy (node replacement, arXiv 2507.04335). NodeBudget is required;
// FidelityFloor 0 means no floor; Kinds is the substitute preference order
// ("collapse", "promote"), defaulting to both in that order.
type ReplaceDrivenParams struct {
	NodeBudget    int      `json:"node_budget"`
	FidelityFloor float64  `json:"fidelity_floor,omitempty"`
	Kinds         []string `json:"kinds,omitempty"`
}

// DecodeParams decodes a factory's JSON parameters into a struct, rejecting
// unknown keys and trailing data: a misspelled key fails instead of
// silently leaving its parameter at the default. Empty params decode to
// nothing, leaving into at its zero value.
func DecodeParams(params json.RawMessage, into any) error {
	if len(params) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the parameters object")
	}
	return nil
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(RegisterStrategy("exact", func(params json.RawMessage) (Strategy, error) {
		return Exact{}, nil
	}))
	must(RegisterStrategy("memory", func(params json.RawMessage) (Strategy, error) {
		var p MemoryDrivenParams
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		return &MemoryDriven{Threshold: p.Threshold, RoundFidelity: p.RoundFidelity, Growth: p.Growth}, nil
	}))
	must(RegisterStrategy("replace", func(params json.RawMessage) (Strategy, error) {
		var p ReplaceDrivenParams
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		kinds, err := ParseSubstituteKinds(p.Kinds)
		if err != nil {
			return nil, err
		}
		return &ReplaceDriven{NodeBudget: p.NodeBudget, FidelityFloor: p.FidelityFloor, Kinds: kinds}, nil
	}))
	must(RegisterStrategy("fidelity", func(params json.RawMessage) (Strategy, error) {
		var p FidelityDrivenParams
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		return &FidelityDriven{
			FinalFidelity:    p.FinalFidelity,
			RoundFidelity:    p.RoundFidelity,
			PreferLateBlocks: !p.PreferEarlyBlocks,
			Locations:        p.Locations,
		}, nil
	}))
}

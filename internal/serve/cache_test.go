package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", []byte("pa"))
	c.put("b", []byte("pb"))
	if v, ok := c.get("a"); !ok || !bytes.Equal(v, []byte("pa")) {
		t.Fatalf("get a: %q %v", v, ok)
	}
	// "a" is now most recently used, so inserting "c" evicts "b".
	c.put("c", []byte("pc"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived")
	}
	st := c.stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hit/miss counters: %+v", st)
	}
	// Re-putting refreshes the payload in place.
	c.put("a", []byte("pa2"))
	if v, _ := c.get("a"); !bytes.Equal(v, []byte("pa2")) {
		t.Errorf("refresh lost: %q", v)
	}
	if got := c.stats().Entries; got != 2 {
		t.Errorf("re-put grew the cache: %d entries", got)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.put("a", []byte("pa"))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache must never hit")
	}
}

func TestContentHashProperties(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(nil)
	base := JobRequest{QASM: ghzQASM, Shots: 16}
	h := func(r JobRequest) string {
		c, err := s.compile(r)
		if err != nil {
			t.Fatal(err)
		}
		return c.hash
	}
	if a, b := h(base), h(base); a != b {
		t.Error("hash must be deterministic")
	}
	named := base
	named.Name = "different label"
	if h(base) != h(named) {
		t.Error("job name must not affect the content hash")
	}
	timed := base
	timed.TimeoutMS = 1234
	if h(base) != h(timed) {
		t.Error("timeout must not affect the content hash")
	}
	seeded := base
	seeded.Seed = 5
	if h(base) == h(seeded) {
		t.Error("explicit seed must affect the content hash")
	}
	strat := base
	strat.Strategy = StrategyMemory
	strat.StrategyParams = json.RawMessage(`{"threshold":64,"round_fidelity":0.9}`)
	if h(base) == h(strat) {
		t.Error("strategy must affect the content hash")
	}
	params := strat
	params.StrategyParams = json.RawMessage(`{"threshold":32,"round_fidelity":0.9}`)
	if h(strat) == h(params) {
		t.Error("strategy parameters must affect the content hash")
	}
	shots := base
	shots.Shots = 17
	if h(base) == h(shots) {
		t.Error("shot count must affect the content hash")
	}

	// Normalization: semantically identical submissions hash identically.
	explicitExact := base
	explicitExact.Strategy = StrategyExact
	if h(base) != h(explicitExact) {
		t.Error("default strategy and explicit \"exact\" must hash identically")
	}
	strayParams := explicitExact
	strayParams.StrategyParams = json.RawMessage(`{"threshold":512}`)
	if h(explicitExact) != h(strayParams) {
		t.Error("strategy-irrelevant parameters must not affect an exact job's hash")
	}
}

// TestCanonicalHashPinned pins the content hash of one submission per
// strategy family, spelled with strategy_params. The values were computed
// before the flat strategy fields were removed from JobRequest: a change
// here moves every cache entry, derived seed and cluster placement.
func TestCanonicalHashPinned(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"exact", JobRequest{QASM: ghzQASM, Shots: 64},
			"2542d1686fa14ada883471e23cc4ecf411ec3855ad2555787e8c776d74559a81"},
		{"exact-explicit", JobRequest{QASM: ghzQASM, Strategy: StrategyExact, Shots: 64},
			"2542d1686fa14ada883471e23cc4ecf411ec3855ad2555787e8c776d74559a81"},
		{"memory", JobRequest{QASM: ghzQASM, Strategy: StrategyMemory, Shots: 64,
			StrategyParams: json.RawMessage(`{"threshold":16,"round_fidelity":0.97}`)},
			"8e76c6fde4903bec2b3cc50900171a9f386bfa1a6e6bd1bccd2f9fa8e8854f64"},
		{"fidelity", JobRequest{QASM: ghzQASM, Strategy: StrategyFidelity, Shots: 64,
			StrategyParams: json.RawMessage(`{"final_fidelity":0.8,"round_fidelity":0.9}`)},
			"e75068ae75435584560ef92a76b90594606451b2845102ffafd4c0f0ee840bd9"},
		{"replace", JobRequest{QASM: ghzQASM, Strategy: StrategyReplace, Shots: 64,
			StrategyParams: json.RawMessage(`{"node_budget":4,"fidelity_floor":0.9}`)},
			"e456457122b3dbe4515c27ca6792a312c1fa07ab3965319d6989d25602eba669"},
		{"reorder", JobRequest{QASM: ghzQASM, Strategy: StrategyReorder, Shots: 64,
			StrategyParams: json.RawMessage(`{"order":"scored","inner":"memory","inner_params":{"threshold":16,"round_fidelity":0.97}}`)},
			"7eaadbd21f32bbf27a3535e40e0ce2441b672c56fc5318c20952ed54f996e5e6"},
		{"auto", JobRequest{QASM: ghzQASM, Strategy: StrategyAuto, Shots: 64},
			"f6b96f4005ff360c1c04d91c5237aea66fb7f8aae7b0fad80919e1a264021abd"},
	}
	for _, c := range cases {
		got, err := CanonicalHash(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
}

package dd

import (
	"math/rand"
	"testing"
)

// TestCleanupKeepsRootEdgesValid asserts the mark-sweep collector's core
// contract: edges passed as roots survive a sweep bit-identically, while
// everything else is recycled.
func TestCleanupKeepsRootEdgesValid(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(11))
	n := 6

	keep, err := m.FromAmplitudes(randomAmplitudes(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	g := m.MakeGateDD(n, gateH, 3, PosControl(5))
	want := m.ToVector(keep, n)

	// Garbage: states and gates not passed as roots.
	for i := 0; i < 8; i++ {
		if _, err := m.FromAmplitudes(randomAmplitudes(n, rng)); err != nil {
			t.Fatal(err)
		}
		m.MakeGateDD(n, gateT, i%n)
	}

	liveBefore := m.Pool().Live
	m.Cleanup([]VEdge{keep}, []MEdge{g})
	pool := m.Pool()
	if pool.Live >= liveBefore {
		t.Fatalf("sweep freed nothing: live %d -> %d", liveBefore, pool.Live)
	}
	if pool.Free == 0 {
		t.Fatal("sweep left the free lists empty despite garbage")
	}
	if pool.Capacity != pool.Live+pool.Free {
		t.Errorf("pool invariant broken after Cleanup: cap=%d live=%d free=%d", pool.Capacity, pool.Live, pool.Free)
	}
	if got, want := m.CountV(keep), CountVNodes(keep); got != want {
		t.Errorf("CountV = %d, CountVNodes = %d", got, want)
	}

	got := m.ToVector(keep, n)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("root amplitude[%d] changed across Cleanup: %v != %v", i, got[i], want[i])
		}
	}
	// The kept root and gate must still work together on the swept manager.
	res := m.MulVec(g, keep)
	if m.IsVZero(res) {
		t.Fatal("gate application on kept root vanished after Cleanup")
	}
}

// TestCleanupRecyclesPooledNodes asserts that a build identical to swept
// garbage is served from the pool free lists: the recycled counter rises and
// pool capacity stays flat instead of allocating new chunks.
func TestCleanupRecyclesPooledNodes(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(12))
	n := 8
	vec := randomAmplitudes(n, rng)

	if _, err := m.FromAmplitudes(vec); err != nil {
		t.Fatal(err)
	}
	m.Cleanup(nil, nil)
	capBefore := m.Pool().Capacity
	recycledBefore := m.Stats().VNodesRecycled

	if _, err := m.FromAmplitudes(vec); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	pool := m.Pool()
	if st.VNodesRecycled <= recycledBefore {
		t.Fatalf("identical rebuild recycled no nodes (recycled %d -> %d)",
			recycledBefore, st.VNodesRecycled)
	}
	if pool.Capacity != capBefore {
		t.Fatalf("identical rebuild grew the pool: capacity %d -> %d", capBefore, pool.Capacity)
	}
}

// TestCleanupCycleIsAllocationFree pins the headline property of the pooled
// memory system: a steady-state build/Cleanup cycle touches only recycled
// pool nodes, pre-grown tables, and the warm weight table — no Go
// allocations at all.
func TestCleanupCycleIsAllocationFree(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(13))
	n := 9
	vec := randomAmplitudes(n, rng)

	cycle := func() {
		if _, err := m.FromAmplitudes(vec); err != nil {
			t.Fatal(err)
		}
		m.Cleanup(nil, nil)
	}
	// Warm up: grow unique tables and intern every weight once.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Errorf("steady-state build/Cleanup cycle allocates %.1f objects per run, want 0", allocs)
	}
}

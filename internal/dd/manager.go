package dd

import (
	"math"

	"repro/internal/cnum"
)

// Manager owns the node pools, unique tables, compute caches, and the
// complex-number table for a family of decision diagrams. All DDs passed to
// Manager methods must have been created by the same Manager. Managers are
// not safe for concurrent use.
type Manager struct {
	CN *cnum.Table

	vTerminal *VNode
	mTerminal *MNode

	// Per-variable unique tables (see unique.go) and node pools.
	vLevels []vLevelTable
	mLevels []mLevelTable
	vPool   vNodePool
	mPool   mNodePool

	// Bounded compute caches (see cache.go), invalidated as a whole by
	// bumping cacheGen. The missMark fields record each cache's miss count
	// at its last resize, driving the grow-under-pressure policy.
	addCache     []addEntry
	maddCache    []maddEntry
	mulCache     []mulEntry
	mmCache      []mmEntry
	ipCache      []ipEntry
	addMissMark  uint64
	maddMissMark uint64
	mulMissMark  uint64
	mmMissMark   uint64
	ipMissMark   uint64
	cacheGen     uint32

	// gcGen is the mark stamp of the most recent Cleanup; nodes whose gen
	// matches it survived that sweep (see gc.go).
	gcGen uint32

	idChain []MEdge // idChain[k] = identity DD on qubits 0..k-1

	// Variable order (see order.go): qubitToLevel[q] is the DD level
	// representing qubit q, levelToQubit its inverse. nil means identity.
	qubitToLevel []int
	levelToQubit []int

	nextID uint64

	// visitV is the retained scratch set behind CountV, so per-gate DD size
	// tracking allocates nothing at steady state. visitM and traceMemo are
	// the matrix counterparts behind CountM and MTrace (hot in the density
	// backend's per-gate loop). All three are cleared per call, never across
	// calls, so node recycling cannot leave stale entries behind.
	visitV    map[*VNode]struct{}
	visitM    map[*MNode]struct{}
	traceMemo map[*MNode]complex128

	// Stats counters.
	vNodesCreated uint64
	mNodesCreated uint64
	cleanups      uint64
	levelSwaps    uint64
	addStats      CacheStats
	maddStats     CacheStats
	mulStats      CacheStats
	mmStats       CacheStats
	ipStats       CacheStats
}

// New returns a Manager with a fresh complex table at the default tolerance.
func New() *Manager { return NewWithTable(cnum.NewTable()) }

// NewWithTable returns a Manager using the given complex table.
func NewWithTable(cn *cnum.Table) *Manager {
	m := &Manager{
		CN:        cn,
		addCache:  make([]addEntry, cacheInitialSize),
		maddCache: make([]maddEntry, cacheInitialSize),
		mulCache:  make([]mulEntry, cacheInitialSize),
		mmCache:   make([]mmEntry, cacheInitialSize),
		ipCache:   make([]ipEntry, cacheInitialSize),
		cacheGen:  1,
		gcGen:     1,
	}
	m.vTerminal = &VNode{id: m.newID(), Var: TerminalVar}
	m.mTerminal = &MNode{id: m.newID(), Var: TerminalVar}
	m.idChain = []MEdge{{W: cn.One, N: m.mTerminal}}
	return m
}

func (m *Manager) newID() uint64 {
	m.nextID++
	return m.nextID
}

// VTerminal returns the vector terminal node.
func (m *Manager) VTerminal() *VNode { return m.vTerminal }

// MTerminal returns the matrix terminal node.
func (m *Manager) MTerminal() *MNode { return m.mTerminal }

// VZero returns the canonical zero vector edge.
func (m *Manager) VZero() VEdge { return VEdge{W: m.CN.Zero, N: m.vTerminal} }

// MZero returns the canonical zero matrix edge.
func (m *Manager) MZero() MEdge { return MEdge{W: m.CN.Zero, N: m.mTerminal} }

// IsVZero reports whether e is a zero vector edge.
func (m *Manager) IsVZero(e VEdge) bool { return e.W == m.CN.Zero }

// IsMZero reports whether e is a zero matrix edge.
func (m *Manager) IsMZero(e MEdge) bool { return e.W == m.CN.Zero }

// vEdge builds a canonical vector edge with weight w: zero weights collapse
// to the canonical zero edge.
func (m *Manager) vEdge(w complex128, n *VNode) VEdge {
	wv := m.CN.Lookup(w)
	if wv == m.CN.Zero {
		return m.VZero()
	}
	return VEdge{W: wv, N: n}
}

// mEdge builds a canonical matrix edge with weight w.
func (m *Manager) mEdge(w complex128, n *MNode) MEdge {
	wv := m.CN.Lookup(w)
	if wv == m.CN.Zero {
		return m.MZero()
	}
	return MEdge{W: wv, N: n}
}

// ScaleV multiplies the weight of e by w, keeping the edge canonical.
func (m *Manager) ScaleV(e VEdge, w complex128) VEdge {
	if m.IsVZero(e) || w == 0 {
		return m.VZero()
	}
	return m.vEdge(e.W.Complex()*w, e.N)
}

// ScaleM multiplies the weight of e by w, keeping the edge canonical.
func (m *Manager) ScaleM(e MEdge, w complex128) MEdge {
	if m.IsMZero(e) || w == 0 {
		return m.MZero()
	}
	return m.mEdge(e.W.Complex()*w, e.N)
}

// NormalizeRootWeight rescales the root weight of a state edge to unit
// magnitude, preserving its phase. Simulation uses this after each gate to
// stop floating-point drift from accumulating in the global norm.
func (m *Manager) NormalizeRootWeight(e VEdge) VEdge {
	if m.IsVZero(e) {
		return e
	}
	mag := e.W.Abs()
	if mag == 0 {
		return m.VZero()
	}
	return m.vEdge(e.W.Complex()/complex(mag, 0), e.N)
}

// Stats reports manager counters: unique-table sizes, node pool traffic, and
// per-cache hit/miss/eviction counts.
type Stats struct {
	VUniqueSize   int
	MUniqueSize   int
	VNodesCreated uint64
	MNodesCreated uint64
	// VNodesRecycled / MNodesRecycled count creations served from the pool
	// free lists (included in the Created totals).
	VNodesRecycled uint64
	MNodesRecycled uint64
	// Per-cache compute-cache counters.
	Add           CacheStats
	MAdd          CacheStats
	Mul           CacheStats
	MM            CacheStats
	IP            CacheStats
	Cleanups      uint64
	ComplexValues int
	// LevelSwaps counts adjacent-level variable swaps (reordering traffic).
	LevelSwaps uint64
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		VNodesCreated:  m.vNodesCreated,
		MNodesCreated:  m.mNodesCreated,
		VNodesRecycled: m.vPool.recycled,
		MNodesRecycled: m.mPool.recycled,
		Add:            m.addStats,
		MAdd:           m.maddStats,
		Mul:            m.mulStats,
		MM:             m.mmStats,
		IP:             m.ipStats,
		Cleanups:       m.cleanups,
		LevelSwaps:     m.levelSwaps,
		ComplexValues:  m.CN.Size(),
	}
	s.VUniqueSize = m.vLiveCount()
	s.MUniqueSize = m.mLiveCount()
	return s
}

// PoolStats reports node-pool occupancy, the signal simulation uses to
// decide when a Cleanup sweep is worthwhile.
type PoolStats struct {
	// Live is the number of nodes currently interned in the unique tables.
	Live int
	// Free is the number of swept nodes waiting on the free lists.
	Free int
	// Capacity is the number of pool slots ever handed out from chunks.
	// Every slot is interned on allocation, so Capacity == Live + Free.
	Capacity int
	// Recycled counts node creations served from the free lists.
	Recycled uint64
}

// Pool returns a snapshot of node-pool occupancy across both node kinds.
func (m *Manager) Pool() PoolStats {
	return PoolStats{
		Live:     m.vLiveCount() + m.mLiveCount(),
		Free:     m.vPool.freeCount + m.mPool.freeCount,
		Capacity: m.vPool.allocated + m.mPool.allocated,
		Recycled: m.vPool.recycled + m.mPool.recycled,
	}
}

// MakeVNode creates (or reuses) a normalized vector node with variable v and
// children e0 (bit 0) and e1 (bit 1), returning the normalized edge pointing
// to it. The children must be canonical edges rooted at variable v-1 (or
// terminal when v == 0).
func (m *Manager) MakeVNode(v int32, e0, e1 VEdge) VEdge {
	if e0.N != nil && !e0.N.IsTerminal() && e0.N.Var != v-1 {
		panic("dd: MakeVNode child 0 level mismatch")
	}
	if e1.N != nil && !e1.N.IsTerminal() && e1.N.Var != v-1 {
		panic("dd: MakeVNode child 1 level mismatch")
	}
	z0, z1 := m.IsVZero(e0), m.IsVZero(e1)
	if z0 && z1 {
		return m.VZero()
	}
	w0, w1 := e0.W.Complex(), e1.W.Complex()
	norm2 := e0.W.Abs2() + e1.W.Abs2()
	mag := math.Sqrt(norm2)
	// Canonical phase: first non-zero child weight becomes real positive.
	// That weight is constructed as exactly real (|w|/mag) rather than via
	// complex division, which would leave a tiny imaginary residue.
	var ne0, ne1 VEdge
	var factor complex128
	if !z0 {
		phase := w0 / complex(e0.W.Abs(), 0)
		factor = complex(mag, 0) * phase
		ne0 = m.vEdge(complex(e0.W.Abs()/mag, 0), e0.N)
		ne1 = m.vEdge(w1/factor, e1.N)
	} else {
		phase := w1 / complex(e1.W.Abs(), 0)
		factor = complex(mag, 0) * phase
		ne0 = m.VZero()
		ne1 = m.vEdge(complex(e1.W.Abs()/mag, 0), e1.N)
	}
	n := m.vLookupInsert(v, ne0, ne1)
	return VEdge{W: m.CN.Lookup(factor), N: n}
}

// MakeMNode creates (or reuses) a normalized matrix node with variable v and
// row-major quadrant children e[2*r+c], returning the normalized edge.
func (m *Manager) MakeMNode(v int32, e [4]MEdge) MEdge {
	allZero := true
	maxIdx := -1
	maxMag := 0.0
	for i := range e {
		if !m.IsMZero(e[i]) {
			allZero = false
			if mag := e[i].W.Abs(); mag > maxMag {
				maxMag = mag
				maxIdx = i
			}
		}
		if e[i].N != nil && !e[i].N.IsTerminal() && e[i].N.Var != v-1 {
			panic("dd: MakeMNode child level mismatch")
		}
	}
	if allZero {
		return m.MZero()
	}
	factor := e[maxIdx].W.Complex()
	var ne [4]MEdge
	for i := range e {
		if m.IsMZero(e[i]) {
			ne[i] = m.MZero()
		} else if i == maxIdx {
			// Exact by construction: w/w == 1.
			ne[i] = MEdge{W: m.CN.One, N: e[i].N}
		} else {
			ne[i] = m.mEdge(e[i].W.Complex()/factor, e[i].N)
		}
	}
	n := m.mLookupInsert(v, &ne)
	return MEdge{W: m.CN.Lookup(factor), N: n}
}

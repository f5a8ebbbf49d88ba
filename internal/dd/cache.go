package dd

import "repro/internal/cnum"

// Power-of-two compute caches with overwrite-on-collision eviction. Each
// entry carries a generation tag; ClearCaches bumps the manager's cache
// generation, instantly invalidating every entry without touching memory.
// Caches start small (fresh managers are cheap, a per-job pattern the batch
// engine relies on) and double under miss pressure up to a fixed cap, so
// cache memory stays bounded no matter how long a manager lives. Entries
// key on node pointers (valid within a generation — recycling only happens
// in Cleanup, which bumps the generation) but hash on node ids and
// interned-weight hashes, so cache behaviour, and hence the order weights
// are interned in, is deterministic across runs.

const (
	// cacheInitialSize is each cache's starting entry count.
	cacheInitialSize = 1 << 10
	// addCacheMax / mulCacheMax bound the hot vector caches; the matrix and
	// inner-product caches stay smaller.
	addCacheMax  = 1 << 15
	maddCacheMax = 1 << 13
	mulCacheMax  = 1 << 15
	mmCacheMax   = 1 << 13
	ipCacheMax   = 1 << 13
	// cacheGrowMissFactor: a cache doubles when the misses accumulated since
	// its last resize exceed this multiple of its size.
	cacheGrowMissFactor = 4
)

type addEntry struct {
	a, b *VNode
	r    *cnum.Value
	res  VEdge
	gen  uint32
}

type maddEntry struct {
	a, b *MNode
	r    *cnum.Value
	res  MEdge
	gen  uint32
}

type mulEntry struct {
	m   *MNode
	v   *VNode
	res VEdge
	gen uint32
}

type mmEntry struct {
	a, b *MNode
	res  MEdge
	gen  uint32
}

type ipEntry struct {
	a, b *VNode
	res  complex128
	gen  uint32
}

// CacheStats counts one compute cache's lookups and evictions.
type CacheStats struct {
	Hits, Misses uint64
	// Evictions counts stores that overwrote a live entry for a different
	// key (the cost of the bounded-memory eviction policy).
	Evictions uint64
}

// HitRatio returns Hits/(Hits+Misses), or 0 when the cache was never probed.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func cacheHash(vals ...uint64) uint64 {
	var h uint64
	for _, v := range vals {
		h = hashCombine(h, v)
	}
	return hashFinish(h)
}

// growCache reports whether a cache of the given size should double, based
// on the misses it accumulated since its last resize.
func growCache(size, max int, misses, missMark uint64) bool {
	return size < max && misses-missMark > uint64(cacheGrowMissFactor*size)
}

// Cache growth: doubling allocates a new array and rehashes the live entries
// of the current generation into it, so hot results survive the growth.

func (m *Manager) growAdd() {
	nc := make([]addEntry, 2*len(m.addCache))
	mask := uint64(len(nc) - 1)
	for i := range m.addCache {
		if e := &m.addCache[i]; e.gen == m.cacheGen {
			nc[cacheHash(e.a.id, e.b.id, e.r.Hash())&mask] = *e
		}
	}
	m.addCache = nc
}

func (m *Manager) growMAdd() {
	nc := make([]maddEntry, 2*len(m.maddCache))
	mask := uint64(len(nc) - 1)
	for i := range m.maddCache {
		if e := &m.maddCache[i]; e.gen == m.cacheGen {
			nc[cacheHash(e.a.id, e.b.id, e.r.Hash())&mask] = *e
		}
	}
	m.maddCache = nc
}

func (m *Manager) growMul() {
	nc := make([]mulEntry, 2*len(m.mulCache))
	mask := uint64(len(nc) - 1)
	for i := range m.mulCache {
		if e := &m.mulCache[i]; e.gen == m.cacheGen {
			nc[cacheHash(e.m.id, e.v.id)&mask] = *e
		}
	}
	m.mulCache = nc
}

func (m *Manager) growMM() {
	nc := make([]mmEntry, 2*len(m.mmCache))
	mask := uint64(len(nc) - 1)
	for i := range m.mmCache {
		if e := &m.mmCache[i]; e.gen == m.cacheGen {
			nc[cacheHash(e.a.id, e.b.id)&mask] = *e
		}
	}
	m.mmCache = nc
}

func (m *Manager) growIP() {
	nc := make([]ipEntry, 2*len(m.ipCache))
	mask := uint64(len(nc) - 1)
	for i := range m.ipCache {
		if e := &m.ipCache[i]; e.gen == m.cacheGen {
			nc[cacheHash(e.a.id, e.b.id)&mask] = *e
		}
	}
	m.ipCache = nc
}

func (m *Manager) addLookup(a, b *VNode, r *cnum.Value) (VEdge, bool) {
	e := &m.addCache[cacheHash(a.id, b.id, r.Hash())&uint64(len(m.addCache)-1)]
	if e.gen == m.cacheGen && e.a == a && e.b == b && e.r == r {
		m.addStats.Hits++
		return e.res, true
	}
	m.addStats.Misses++
	return VEdge{}, false
}

func (m *Manager) addStore(a, b *VNode, r *cnum.Value, res VEdge) {
	if growCache(len(m.addCache), addCacheMax, m.addStats.Misses, m.addMissMark) {
		m.growAdd()
		m.addMissMark = m.addStats.Misses
	}
	e := &m.addCache[cacheHash(a.id, b.id, r.Hash())&uint64(len(m.addCache)-1)]
	if e.gen == m.cacheGen {
		m.addStats.Evictions++
	}
	*e = addEntry{a: a, b: b, r: r, res: res, gen: m.cacheGen}
}

func (m *Manager) maddLookup(a, b *MNode, r *cnum.Value) (MEdge, bool) {
	e := &m.maddCache[cacheHash(a.id, b.id, r.Hash())&uint64(len(m.maddCache)-1)]
	if e.gen == m.cacheGen && e.a == a && e.b == b && e.r == r {
		m.maddStats.Hits++
		return e.res, true
	}
	m.maddStats.Misses++
	return MEdge{}, false
}

func (m *Manager) maddStore(a, b *MNode, r *cnum.Value, res MEdge) {
	if growCache(len(m.maddCache), maddCacheMax, m.maddStats.Misses, m.maddMissMark) {
		m.growMAdd()
		m.maddMissMark = m.maddStats.Misses
	}
	e := &m.maddCache[cacheHash(a.id, b.id, r.Hash())&uint64(len(m.maddCache)-1)]
	if e.gen == m.cacheGen {
		m.maddStats.Evictions++
	}
	*e = maddEntry{a: a, b: b, r: r, res: res, gen: m.cacheGen}
}

func (m *Manager) mulLookup(mn *MNode, vn *VNode) (VEdge, bool) {
	e := &m.mulCache[cacheHash(mn.id, vn.id)&uint64(len(m.mulCache)-1)]
	if e.gen == m.cacheGen && e.m == mn && e.v == vn {
		m.mulStats.Hits++
		return e.res, true
	}
	m.mulStats.Misses++
	return VEdge{}, false
}

func (m *Manager) mulStore(mn *MNode, vn *VNode, res VEdge) {
	if growCache(len(m.mulCache), mulCacheMax, m.mulStats.Misses, m.mulMissMark) {
		m.growMul()
		m.mulMissMark = m.mulStats.Misses
	}
	e := &m.mulCache[cacheHash(mn.id, vn.id)&uint64(len(m.mulCache)-1)]
	if e.gen == m.cacheGen {
		m.mulStats.Evictions++
	}
	*e = mulEntry{m: mn, v: vn, res: res, gen: m.cacheGen}
}

func (m *Manager) mmLookup(a, b *MNode) (MEdge, bool) {
	e := &m.mmCache[cacheHash(a.id, b.id)&uint64(len(m.mmCache)-1)]
	if e.gen == m.cacheGen && e.a == a && e.b == b {
		m.mmStats.Hits++
		return e.res, true
	}
	m.mmStats.Misses++
	return MEdge{}, false
}

func (m *Manager) mmStore(a, b *MNode, res MEdge) {
	if growCache(len(m.mmCache), mmCacheMax, m.mmStats.Misses, m.mmMissMark) {
		m.growMM()
		m.mmMissMark = m.mmStats.Misses
	}
	e := &m.mmCache[cacheHash(a.id, b.id)&uint64(len(m.mmCache)-1)]
	if e.gen == m.cacheGen {
		m.mmStats.Evictions++
	}
	*e = mmEntry{a: a, b: b, res: res, gen: m.cacheGen}
}

func (m *Manager) ipLookup(a, b *VNode) (complex128, bool) {
	e := &m.ipCache[cacheHash(a.id, b.id)&uint64(len(m.ipCache)-1)]
	if e.gen == m.cacheGen && e.a == a && e.b == b {
		m.ipStats.Hits++
		return e.res, true
	}
	m.ipStats.Misses++
	return 0, false
}

func (m *Manager) ipStore(a, b *VNode, res complex128) {
	if growCache(len(m.ipCache), ipCacheMax, m.ipStats.Misses, m.ipMissMark) {
		m.growIP()
		m.ipMissMark = m.ipStats.Misses
	}
	e := &m.ipCache[cacheHash(a.id, b.id)&uint64(len(m.ipCache)-1)]
	if e.gen == m.cacheGen {
		m.ipStats.Evictions++
	}
	*e = ipEntry{a: a, b: b, res: res, gen: m.cacheGen}
}

package cnum

import (
	"math"
	"sync/atomic"
)

// DefaultTolerance is the grid spacing used to decide when two floating-point
// complex values are considered the same weight. It matches the order of
// magnitude used by production DD packages: large enough to absorb rounding
// drift from long gate sequences, small enough not to merge distinct
// amplitudes of the circuits under study.
const DefaultTolerance = 1e-10

type cellKey struct{ re, im int64 }

const (
	// numShards splits the cell map into this many plain maps, selected by
	// shardOf. Must be a power of two. The split carries no locks; it stays
	// because it measured faster than one map: on a 2-vCPU machine a
	// single-map variant ran exact 10-qubit random Clifford+T sessions
	// slower in 6 of 6 alternating pairs (median wall 4.16 s vs
	// 3.68 s). Collapse it only if at least 10 alternating pairs show that
	// a single map is no slower.
	numShards = 8
	// valueChunk is the number of Values allocated per chunk.
	valueChunk = 1024
)

// shardOf selects a shard from well-mixed high multiply bits, so neighbouring
// cells spread across shards.
func shardOf(k cellKey) int {
	h := uint64(k.re)*0x9E3779B97F4A7C15 ^ uint64(k.im)*0xC6A4A7935BD1E995
	return int(h >> (64 - 3)) // top log2(numShards) bits
}

// cellHash derives the canonical Value hash from the grid cell alone. Two
// tables at the same tolerance therefore assign equal hashes to equal
// weights regardless of interning order — the "canonical-hash bridge" that
// keeps DD node hashes, and hence every downstream structure, bit-identical
// across per-worker managers.
func cellHash(k cellKey) uint64 {
	h := Mix64(uint64(k.re) ^ 0x9E3779B97F4A7C15)
	return Mix64(h + uint64(k.im))
}

// Table interns complex values on a tolerance grid. The zero value is not
// usable; construct with NewTable. A Table belongs to one manager and is not
// safe for concurrent Lookup. Its stats counters are atomic, so observers
// may read them while the owning goroutine interns.
type Table struct {
	tol float64

	shards [numShards]map[cellKey]*Value

	// Canonical values. Zero and One are used pervasively by the DD engine
	// for pointer-identity fast paths.
	Zero *Value
	One  *Value

	// Values are allocated from chunks of valueChunk to cut per-value
	// allocations.
	chunk     []Value
	chunkNext int

	lookups atomic.Int64
	// size counts interned values. Values are never removed and every
	// lookup miss interns one, so it is also the miss count.
	size atomic.Int64
}

// NewTable returns a table with DefaultTolerance.
func NewTable() *Table { return NewTableTol(DefaultTolerance) }

// NewTableTol returns a table with the given tolerance. tol must be positive.
func NewTableTol(tol float64) *Table {
	if tol <= 0 {
		panic("cnum: tolerance must be positive")
	}
	t := &Table{tol: tol}
	for i := range t.shards {
		t.shards[i] = make(map[cellKey]*Value, 128)
	}
	t.Zero = t.Lookup(0)
	t.One = t.Lookup(1)
	return t
}

// Tolerance returns the table tolerance.
func (t *Table) Tolerance() float64 { return t.tol }

// Size returns the number of currently interned values.
func (t *Table) Size() int { return int(t.size.Load()) }

// Peak returns the high-water mark of Size since the table was created.
// Interned values are never removed, so it equals Size.
func (t *Table) Peak() int { return t.Size() }

// Stats returns lookup and hit counters. Both counters are monotonic over
// the table lifetime, so callers measuring one run take deltas. Safe to call
// concurrently with lookups.
func (t *Table) Stats() (lookups, hits int64) {
	l := t.lookups.Load()
	return l, l - t.size.Load()
}

func (t *Table) key(re, im float64) cellKey {
	return cellKey{int64(math.Round(re / t.tol)), int64(math.Round(im / t.tol))}
}

// CanonicalHash returns the hash a value interned for c would carry. It
// depends only on the tolerance grid cell, never on interning order, so
// separate tables at the same tolerance can compare weights by hash.
func (t *Table) CanonicalHash(c complex128) uint64 {
	re, im := real(c), imag(c)
	if re == 0 {
		re = 0
	}
	if im == 0 {
		im = 0
	}
	return cellHash(t.key(re, im))
}

// Lookup interns c and returns the canonical Value pointer. Values within the
// tolerance of an already-interned value return the existing pointer; the
// neighbouring grid cells are also probed so values straddling a cell
// boundary still unify.
func (t *Table) Lookup(c complex128) *Value {
	return t.LookupFloat(real(c), imag(c))
}

// LookupFloat is Lookup for separate real/imaginary parts.
func (t *Table) LookupFloat(re, im float64) *Value {
	t.lookups.Add(1)
	// Canonicalize signed zeros so -0.0 and +0.0 intern identically.
	if re == 0 {
		re = 0
	}
	if im == 0 {
		im = 0
	}
	k := t.key(re, im)
	if v, ok := t.shards[shardOf(k)][k]; ok {
		return v
	}
	return t.lookupSlow(k, re, im)
}

// lookupSlow handles the exact-cell miss: neighbour probing, canonical
// constant snapping, and interning a new value.
func (t *Table) lookupSlow(k cellKey, re, im float64) *Value {
	// Probe the 8 neighbouring cells: a value within tol of an existing one
	// may round to an adjacent cell.
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			if dr == 0 && di == 0 {
				continue
			}
			nk := cellKey{k.re + dr, k.im + di}
			if v, ok := t.shards[shardOf(nk)][nk]; ok && math.Abs(v.Re-re) <= t.tol && math.Abs(v.Im-im) <= t.tol {
				return v
			}
		}
	}
	// Snap near-exact constants so canonical values keep pointer identity.
	if math.Abs(re) <= t.tol && math.Abs(im) <= t.tol {
		if t.Zero != nil {
			return t.Zero
		}
		re, im = 0, 0
	} else if math.Abs(re-1) <= t.tol && math.Abs(im) <= t.tol {
		if t.One != nil {
			return t.One
		}
		re, im = 1, 0
	}
	v := t.allocValue()
	*v = Value{Re: re, Im: im, hash: cellHash(k)}
	t.shards[shardOf(k)][k] = v
	t.size.Add(1)
	return v
}

// allocValue hands out the next Value of the current chunk.
func (t *Table) allocValue() *Value {
	if t.chunkNext == len(t.chunk) {
		t.chunk = make([]Value, valueChunk)
		t.chunkNext = 0
	}
	v := &t.chunk[t.chunkNext]
	t.chunkNext++
	return v
}

// Mix64 is the SplitMix64 finalizer: a cheap bijective mixer whose output
// bits all depend on all input bits. The table uses it to spread grid-cell
// coordinates into well-distributed Value hashes, and the decision-diagram
// tables reuse it to finish their combined key hashes.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// IsZero reports whether v is the canonical zero of this table.
func (t *Table) IsZero(v *Value) bool { return v == t.Zero }

// IsOne reports whether v is the canonical one of this table.
func (t *Table) IsOne(v *Value) bool { return v == t.One }

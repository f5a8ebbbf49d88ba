package cnum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCanonicalZeroOne(t *testing.T) {
	tb := NewTable()
	if tb.Zero == nil || tb.One == nil {
		t.Fatal("canonical values not initialized")
	}
	if tb.Lookup(0) != tb.Zero {
		t.Error("Lookup(0) is not the canonical zero")
	}
	if tb.Lookup(1) != tb.One {
		t.Error("Lookup(1) is not the canonical one")
	}
	if !tb.IsZero(tb.Lookup(complex(0, 0))) {
		t.Error("IsZero failed for looked-up zero")
	}
	if !tb.IsOne(tb.Lookup(complex(1, 0))) {
		t.Error("IsOne failed for looked-up one")
	}
}

func TestSignedZeroCanonicalization(t *testing.T) {
	tb := NewTable()
	negZero := math.Copysign(0, -1)
	if tb.LookupFloat(negZero, 0) != tb.Zero {
		t.Error("-0.0 did not intern to canonical zero")
	}
	if tb.LookupFloat(0, negZero) != tb.Zero {
		t.Error("0-0i did not intern to canonical zero")
	}
	if tb.LookupFloat(1, negZero) != tb.One {
		t.Error("1-0i did not intern to canonical one")
	}
}

func TestInterningIdempotent(t *testing.T) {
	tb := NewTable()
	vals := []complex128{
		complex(1/math.Sqrt2, 0),
		complex(0, -1),
		complex(0.5, 0.5),
		complex(-0.25, 1e-3),
	}
	for _, c := range vals {
		a := tb.Lookup(c)
		b := tb.Lookup(c)
		if a != b {
			t.Errorf("Lookup(%v) not idempotent", c)
		}
	}
}

func TestToleranceUnification(t *testing.T) {
	tb := NewTable()
	base := tb.Lookup(complex(1/math.Sqrt2, 0))
	// A value within tolerance must intern to the same pointer, even if its
	// grid cell differs.
	for _, eps := range []float64{1e-12, -1e-12, 4.9e-11, -4.9e-11} {
		got := tb.Lookup(complex(1/math.Sqrt2+eps, eps/2))
		if got != base {
			t.Errorf("value offset by %g did not unify (got %v want %v)", eps, got, base)
		}
	}
}

func TestDistinctValuesStayDistinct(t *testing.T) {
	tb := NewTable()
	a := tb.Lookup(complex(0.3, 0))
	b := tb.Lookup(complex(0.300001, 0))
	if a == b {
		t.Error("values 1e-6 apart were merged at tolerance 1e-10")
	}
}

func TestNearOneSnaps(t *testing.T) {
	tb := NewTable()
	if tb.Lookup(complex(1+1e-12, -1e-12)) != tb.One {
		t.Error("value within tol of 1 did not snap to canonical one")
	}
	if tb.Lookup(complex(1e-12, -1e-12)) != tb.Zero {
		t.Error("value within tol of 0 did not snap to canonical zero")
	}
}

func TestValueAccessors(t *testing.T) {
	tb := NewTable()
	v := tb.Lookup(complex(3, -4))
	if v.Complex() != complex(3, -4) {
		t.Errorf("Complex() = %v", v.Complex())
	}
	if v.Abs2() != 25 {
		t.Errorf("Abs2() = %v, want 25", v.Abs2())
	}
	if v.Abs() != 5 {
		t.Errorf("Abs() = %v, want 5", v.Abs())
	}
	var nilV *Value
	if nilV.Complex() != 0 || nilV.Abs2() != 0 {
		t.Error("nil Value accessors should be zero")
	}
}

func TestValueString(t *testing.T) {
	tb := NewTable()
	cases := []struct {
		c    complex128
		want string
	}{
		{complex(1, 0), "1"},
		{complex(0, 1), "1i"},
		{complex(0.5, 0.5), "0.5+0.5i"},
		{complex(0.5, -0.5), "0.5-0.5i"},
	}
	for _, tc := range cases {
		if got := tb.Lookup(tc.c).String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.c, got, tc.want)
		}
	}
	var nilV *Value
	if nilV.String() != "<nil>" {
		t.Error("nil String()")
	}
}

func TestStatsAndSize(t *testing.T) {
	tb := NewTable()
	before := tb.Size()
	tb.Lookup(complex(0.123, 0.456))
	if tb.Size() != before+1 {
		t.Errorf("Size did not grow by 1")
	}
	tb.Lookup(complex(0.123, 0.456))
	lookups, hits := tb.Stats()
	if lookups == 0 || hits == 0 {
		t.Errorf("Stats not counting: lookups=%d hits=%d", lookups, hits)
	}
}

func TestBadToleranceRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTableTol(0) did not panic")
		}
	}()
	NewTableTol(0)
}

// Property: interning any float pair twice yields the same pointer, and the
// interned value is within tolerance of the input.
func TestQuickInterning(t *testing.T) {
	tb := NewTable()
	f := func(re, im float64) bool {
		// Constrain to a sane range; NaN/Inf weights never occur in DDs.
		re = math.Mod(re, 4)
		im = math.Mod(im, 4)
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		a := tb.LookupFloat(re, im)
		b := tb.LookupFloat(re, im)
		return a == b &&
			math.Abs(a.Re-re) <= 2*tb.Tolerance() &&
			math.Abs(a.Im-im) <= 2*tb.Tolerance()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: values farther apart than 3*tol never unify.
func TestQuickSeparation(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		re := rng.Float64()*2 - 1
		im := rng.Float64()*2 - 1
		d := 3*tb.Tolerance() + rng.Float64()*1e-6
		a := tb.LookupFloat(re, im)
		b := tb.LookupFloat(re+d, im)
		if a == b {
			t.Fatalf("values %g apart unified at tol %g", d, tb.Tolerance())
		}
	}
}

// TestCanonicalHashBridge: equal weights carry equal hashes across tables,
// independent of interning order — the property that keeps DD hashing
// bit-identical across per-worker managers.
func TestCanonicalHashBridge(t *testing.T) {
	a := NewTable()
	b := NewTable()
	vals := []complex128{
		complex(1/math.Sqrt2, 0),
		complex(0, -1),
		complex(0.5, 0.5),
		complex(-0.25, 1e-3),
		complex(0.123456789, -0.987654321),
	}
	// Intern in opposite orders.
	for _, c := range vals {
		a.Lookup(c)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Lookup(vals[i])
	}
	for _, c := range vals {
		va, vb := a.Lookup(c), b.Lookup(c)
		if va.Hash() != vb.Hash() {
			t.Errorf("hash of %v differs across tables: %x vs %x", c, va.Hash(), vb.Hash())
		}
		if va.Hash() != a.CanonicalHash(c) {
			t.Errorf("CanonicalHash(%v) = %x, interned hash %x", c, a.CanonicalHash(c), va.Hash())
		}
	}
	if a.Zero.Hash() != b.Zero.Hash() || a.One.Hash() != b.One.Hash() {
		t.Error("canonical constants hash differently across tables")
	}
}

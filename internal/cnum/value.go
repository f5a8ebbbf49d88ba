package cnum

import (
	"fmt"
	"math"
)

// Value is an interned complex number. Within a single Table two Values that
// compare equal within the table tolerance are the same pointer, so edge
// weights can be compared by pointer identity.
type Value struct {
	Re, Im float64

	// hash is a well-spread 64-bit identifier assigned by the owning Table
	// at interning time. It is stable for the Value's lifetime and
	// deterministic across runs (it depends only on the tolerance-grid cell),
	// which lets decision-diagram tables hash on weights without touching
	// pointer values.
	hash uint64
}

// Hash returns the stable 64-bit hash assigned when the value was interned.
func (v *Value) Hash() uint64 {
	if v == nil {
		return 0
	}
	return v.hash
}

// Complex returns the value as a complex128.
func (v *Value) Complex() complex128 {
	if v == nil {
		return 0
	}
	return complex(v.Re, v.Im)
}

// Abs2 returns the squared magnitude |v|².
func (v *Value) Abs2() float64 {
	if v == nil {
		return 0
	}
	return v.Re*v.Re + v.Im*v.Im
}

// Abs returns the magnitude |v|.
func (v *Value) Abs() float64 { return math.Sqrt(v.Abs2()) }

// String formats the value in a compact a+bi form.
func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	switch {
	case v.Im == 0:
		return fmt.Sprintf("%g", v.Re)
	case v.Re == 0:
		return fmt.Sprintf("%gi", v.Im)
	case v.Im < 0:
		return fmt.Sprintf("%g-%gi", v.Re, -v.Im)
	default:
		return fmt.Sprintf("%g+%gi", v.Re, v.Im)
	}
}

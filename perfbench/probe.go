package main

import (
	"math/cmplx"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/circuit"
	"repro/internal/dense"
)

// cpuTime returns the process's user+system CPU time from getrusage: real
// CPU, not summed job wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MiB: a
// reading that depends on what the program holds, not on when the
// collector last ran.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// gcCPU returns the runtime's estimate of CPU seconds spent in the garbage
// collector so far.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// meter brackets one timed interval: wall, process CPU and GC CPU.
type meter struct {
	wall0 time.Time
	cpu0  time.Duration
	gc0   float64
}

func startMeter() meter { return meter{time.Now(), cpuTime(), gcCPU()} }

type reading struct{ wall, cpu, gc float64 }

func (m meter) stop() reading {
	return reading{
		wall: time.Since(m.wall0).Seconds(),
		cpu:  (cpuTime() - m.cpu0).Seconds(),
		gc:   gcCPU() - m.gc0,
	}
}

// denseRun simulates c on the dense reference simulator from |0…0⟩.
func denseRun(c *circuit.Circuit) *dense.State {
	ds := dense.NewState(c.NumQubits)
	for _, g := range c.Gates() {
		ctls := make([]dense.ControlSpec, len(g.Controls))
		for i, ct := range g.Controls {
			ctls[i] = dense.ControlSpec{Qubit: ct.Qubit, Positive: ct.Positive}
		}
		switch g.Kind {
		case circuit.KindUnitary:
			u, err := g.Matrix()
			if err != nil {
				panic(err) // generated circuits carry only valid gates
			}
			ds.ApplyGate(u, g.Target, ctls...)
		case circuit.KindPerm:
			ds.ApplyPermutation(g.Perm, g.PermWidth, ctls...)
		}
	}
	return ds
}

// fidelity returns |⟨a|b⟩|² / (‖a‖²‖b‖²).
func fidelity(a, b []complex128) float64 {
	var ip complex128
	var na, nb float64
	for i := range a {
		ip += cmplx.Conj(a[i]) * b[i]
		na += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		nb += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	x := cmplx.Abs(ip)
	return x * x / (na * nb)
}

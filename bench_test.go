package repro

// Benchmark harness regenerating the paper's evaluation (Table I) and the
// supporting ablations. Every benchmark corresponds to an experiment of the
// report that cmd/experiments prints (its doc comment lists the sections).
//
// The default (small) preset keeps `go test -bench=.` in the minutes range;
// run `go run ./cmd/table1 -scale medium|paper` for larger instances.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/benchtab"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/shor"
	"repro/internal/sim"
	"repro/internal/supremacy"
)

// --- E1: Table I, memory-driven half (quantum-supremacy circuits) ---------

func BenchmarkTable1MemoryDriven(b *testing.B) {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	circ, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact_"+cfg.Name(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sim.New()
			res, err := s.Run(circ, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.MaxDDSize), "maxDDnodes")
		}
	})
	for _, fround := range []float64{0.99, 0.975, 0.95} {
		b.Run(fmt.Sprintf("approx_%s_fround%g", cfg.Name(), fround), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New()
				res, err := s.Run(circ, sim.Options{Strategy: &core.MemoryDriven{
					Threshold: 1 << 10, RoundFidelity: fround, Growth: 1.05,
				}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.MaxDDSize), "maxDDnodes")
				b.ReportMetric(float64(len(res.Rounds)), "rounds")
				b.ReportMetric(res.EstimatedFidelity, "fidelity")
			}
		})
	}
}

// --- E2: Table I, fidelity-driven half (Shor's algorithm) -----------------

func BenchmarkTable1FidelityDriven(b *testing.B) {
	cases := []struct{ n, a uint64 }{{15, 7}, {21, 2}, {33, 5}}
	for _, c := range cases {
		inst, err := shor.NewInstance(c.n, c.a)
		if err != nil {
			b.Fatal(err)
		}
		circ := inst.BuildCircuit()
		b.Run("exact_"+inst.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New()
				res, err := s.Run(circ, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.MaxDDSize), "maxDDnodes")
			}
		})
		b.Run("approx_"+inst.Name()+"_ffinal0.5", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New()
				res, err := s.Run(circ, sim.Options{
					Strategy: core.NewFidelityDriven(0.5, 0.9),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.MaxDDSize), "maxDDnodes")
				b.ReportMetric(float64(len(res.Rounds)), "rounds")
				b.ReportMetric(res.EstimatedFidelity, "fidelity")
			}
		})
	}
}

// --- E5: Shor end-to-end at 50 % fidelity ----------------------------------

func BenchmarkShorFactorAtHalfFidelity(b *testing.B) {
	inst, err := shor.NewInstance(33, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := inst.Run(shor.RunOptions{
			FinalFidelity: 0.5, RoundFidelity: 0.9, Shots: 64, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Factors.Success {
			b.Fatal("failed to factor 33 at 50% fidelity")
		}
		b.ReportMetric(out.Factors.SuccessRate(), "successRate")
	}
}

// --- E8 ablation: threshold sweep (memory-driven hyper-parameters) --------

func BenchmarkAblationThresholdSweep(b *testing.B) {
	cfg := supremacy.Config{Rows: 3, Cols: 4, Depth: 16, Seed: 0}
	circ, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, threshold := range []int{1 << 8, 1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("threshold%d", threshold), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New()
				res, err := s.Run(circ, sim.Options{Strategy: &core.MemoryDriven{
					Threshold: threshold, RoundFidelity: 0.975, Growth: 1.05,
				}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.MaxDDSize), "maxDDnodes")
				b.ReportMetric(res.EstimatedFidelity, "fidelity")
			}
		})
	}
}

// --- E9 ablation: few-low-fidelity vs many-high-fidelity rounds -----------

func BenchmarkAblationRoundTradeoff(b *testing.B) {
	inst, err := shor.NewInstance(33, 5)
	if err != nil {
		b.Fatal(err)
	}
	circ := inst.BuildCircuit()
	// All configurations guarantee f_final = 0.5 but split it differently
	// (Section IV-C's tradeoff discussion).
	for _, fround := range []float64{0.71, 0.9, 0.99} {
		b.Run(fmt.Sprintf("fround%g", fround), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New()
				res, err := s.Run(circ, sim.Options{
					Strategy: core.NewFidelityDriven(0.5, fround),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.MaxDDSize), "maxDDnodes")
				b.ReportMetric(float64(len(res.Rounds)), "rounds")
			}
		})
	}
}

// --- E10 baseline: dense state-vector vs decision diagrams ----------------

func BenchmarkBaselineDenseVsDD(b *testing.B) {
	workloads := []struct {
		name string
		c    *Circuit
	}{
		{"ghz16", gen.GHZ(16)},
		{"qft14", gen.QFT(14)},
		{"grover12", gen.Grover(12, 0b101010101010, 2)},
	}
	for _, w := range workloads {
		b.Run("dd_"+w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New()
				if _, err := s.Run(w.c, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("dense_"+w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds := dense.NewState(w.c.NumQubits)
				for _, g := range w.c.Gates() {
					u, err := g.Matrix()
					if err != nil {
						b.Fatal(err)
					}
					ctls := make([]dense.ControlSpec, len(g.Controls))
					for k, ct := range g.Controls {
						ctls[k] = dense.ControlSpec{Qubit: ct.Qubit, Positive: ct.Positive}
					}
					ds.ApplyGate(u, g.Target, ctls...)
				}
			}
		})
	}
}

// --- Ablation: matrix-vector vs matrix-matrix application ([31]) ----------

func BenchmarkAblationMatVecVsMatMat(b *testing.B) {
	circ := gen.QFT(10)
	b.Run("matvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sim.New()
			if _, err := s.Run(circ, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("matmat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := dd.New()
			// Fold the whole circuit into one operation DD, then apply it.
			op := m.Identity(circ.NumQubits)
			for _, g := range circ.Gates() {
				u, err := g.Matrix()
				if err != nil {
					b.Fatal(err)
				}
				gd := m.MakeGateDD(circ.NumQubits, u, g.Target, g.Controls...)
				op = m.MulMat(gd, op)
			}
			state := m.MulVec(op, m.ZeroState(circ.NumQubits))
			if m.IsVZero(state) {
				b.Fatal("state vanished")
			}
		}
	})
}

// --- Micro-benchmarks: approximation primitive and DD operations ----------

func BenchmarkApproximationPrimitive(b *testing.B) {
	m := dd.New()
	rng := rand.New(rand.NewSource(7))
	n := 14
	vec := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range vec {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		vec[i] = complex(re, im)
		norm += re*re + im*im
	}
	for i := range vec {
		vec[i] /= complex(math.Sqrt(norm), 0)
	}
	e, err := m.FromAmplitudes(vec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := core.ApproximateToFidelity(m, e, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.SizeBefore-rep.SizeAfter), "nodesRemoved")
	}
}

func BenchmarkDDGateApplication(b *testing.B) {
	s := sim.New()
	circ := gen.RandomCliffordT(12, 200, 3)
	res, err := s.Run(circ, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.M.MakeGateDD(12, [4]complex128{
		complex(0.7071067811865476, 0), complex(0.7071067811865476, 0),
		complex(0.7071067811865476, 0), complex(-0.7071067811865476, 0),
	}, 6)
	b.ResetTimer()
	state := res.Final
	for i := 0; i < b.N; i++ {
		state = s.M.MulVec(h, state)
	}
}

func BenchmarkDDInnerProduct(b *testing.B) {
	s := sim.New()
	a, err := s.Run(gen.QFT(14), sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// The second run shares the manager: keep a's final state out of the
	// node pool's reach while it executes.
	c, err := s.Run(gen.RandomCliffordT(14, 100, 5), sim.Options{KeepAlive: []dd.VEdge{a.Final}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.M.Fidelity(a.Final, c.Final)
	}
}

// --- Full Table I at the small preset (one row set per iteration) ---------

func BenchmarkTable1SmallPresetFull(b *testing.B) {
	if testing.Short() {
		b.Skip("full table in -short mode")
	}
	suite, err := benchtab.NewSuite(benchtab.PresetSmall)
	if err != nil {
		b.Fatal(err)
	}
	// Trim to one supremacy seed for bench time; cmd/table1 runs all.
	suite.Supremacy = suite.Supremacy[:1]
	suite.Shor = suite.Shor[:2]
	suite.SampleTrue = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.RunMemoryDriven(context.Background(), benchtab.RunOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, err := suite.RunFidelityDriven(context.Background(), benchtab.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sim"
)

// cliffordt-long: exact simulation of long random Clifford+T circuits, one
// session after another on one goroutine (a closed loop: each session is
// due when the previous one ends). The circuit set is fixed and the seed
// sets the order the sessions run in: one random circuit of this size costs
// up to twice another, so circuits drawn from the seed would make the
// workload's cost a property of the seed rather than of the program.
const (
	ctQubits   = 10
	ctGates    = 300
	ctCircuits = 8
	// ctLimit is the latency limit a session must meet to count as goodput.
	ctLimit = 60 * time.Second
)

type ctSession struct {
	latency float64 // ms
	weights int     // interned-weight peak
	maxDD   int
	estFid  float64
	vec     []complex128
}

func runCliffordT(cfg config) (*report, error) {
	rep := newReport()
	var circs []*circuit.Circuit
	var refs [][]complex128
	var denseS float64
	setupS, err := timeSetup(func() error {
		circs, refs = circs[:0], refs[:0]
		for _, k := range rand.New(rand.NewSource(cfg.seed)).Perm(ctCircuits) {
			circs = append(circs, gen.RandomCliffordT(ctQubits, ctGates, int64(k)))
		}
		start := time.Now()
		for _, c := range circs {
			refs = append(refs, denseRun(c).Amp)
		}
		denseS = time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	m["setup_s"] = setupS

	var tr *Tracer
	var totals simTotals
	var walls, cpus, gcs, goodputs, lat []float64
	var last []ctSession
	untracedCPU := 0.0
	peakDD, minEst, minTrue := 0, 1.0, 1.0
	measure := func(i int) error {
		if cfg.trace && i == 1 {
			tr = newTracer() // pass 0 is the untraced comparison pass
		}
		r, sessions, err := ctPass(circs, tr, &totals)
		if err != nil {
			return err
		}
		if cfg.trace && i == 0 {
			untracedCPU = r.cpu
			return nil
		}
		walls, cpus, gcs = append(walls, r.wall), append(cpus, r.cpu), append(gcs, r.gc)
		good := 0
		for k, s := range sessions {
			lat = append(lat, s.latency)
			if s.latency <= float64(ctLimit.Milliseconds()) {
				good++
			}
			peakDD = max(peakDD, s.maxDD)
			minEst = min(minEst, s.estFid)
			f := fidelity(refs[k], s.vec)
			minTrue = min(minTrue, f)
			rep.check(f >= 1-1e-9, "cliffordt-long circuit %d: exact fidelity %v below 1-1e-9", k, f)
		}
		goodputs = append(goodputs, float64(good)/r.wall)
		last = sessions
		return nil
	}
	passes, err := repeat(cfg.seconds, minPasses(cfg), measure)
	if err != nil {
		return nil, err
	}
	heap, err := ctHeap(circs, last)
	if err != nil {
		return nil, err
	}
	m["heap_mb"] = heap
	m["wall_s"], m["cpu_s"] = median(walls), median(cpus)
	m["peak_dd_nodes"] = float64(peakDD)
	m["fidelity_est"], m["fidelity_true"] = minEst, minTrue
	m["job_p50_ms"] = median(lat)
	level, tailMs := tail(lat)
	m["goodput_rps"] = median(goodputs)
	m["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	rep.note("cliffordt-long: %d circuits x %d gates on %d qubits per pass, %d passes; session latency p%g %.3f ms of %d sessions",
		ctCircuits, ctGates, ctQubits, len(walls), level, tailMs, len(lat))

	m["dense.sim_s"] = denseS
	m["dense.dd_over_dense"] = ratio(median(walls), denseS)
	m["go.gc_cpu_s"] = median(gcs)
	if cfg.trace {
		spans := tr.Spans()
		totals.fill(m, passes-1, spans)
		m["trace.overhead_frac"] = ratio(median(cpus)-untracedCPU, untracedCPU)
		rep.note("%s", layerNote(spans))
		if err := writeSpans(cfg, tr, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ctPass runs every circuit once, exactly, stepping each session from the
// benchmark so that a traced pass can bracket every Step call.
func ctPass(circs []*circuit.Circuit, tr *Tracer, totals *simTotals) (reading, []ctSession, error) {
	out := make([]ctSession, 0, len(circs))
	meter := startMeter()
	for k, c := range circs {
		start := time.Now()
		var opts sim.Options
		var probe *sessionProbe
		if tr != nil {
			probe = newSessionProbe(tr, c.Len(), int64(k+1), &totals.probe)
			opts.Observer = probe
			opts.Strategy = approxStrategy{Strategy: core.Exact{}, probe: probe}
		}
		ses, err := sim.NewSession(c, opts)
		if err != nil {
			return reading{}, nil, err
		}
		for ses.Remaining() > 0 {
			if probe != nil {
				probe.Begin()
			}
			err := ses.Step()
			if probe != nil {
				probe.End()
			}
			if err != nil {
				return reading{}, nil, fmt.Errorf("circuit %d: %w", k, err)
			}
		}
		res, err := ses.Finish()
		if err != nil {
			return reading{}, nil, err
		}
		// Copying the 2^10 amplitudes out lets the manager go before the
		// next session; it is negligible next to the session itself.
		vec := res.Manager.ToVector(res.Final, c.NumQubits)
		if probe != nil {
			totals.add(res)
			totals.addProbe(probe)
		}
		out = append(out, ctSession{
			latency: float64(time.Since(start).Nanoseconds()) / 1e6,
			weights: res.WeightTable.Peak,
			maxDD:   res.MaxDDSize,
			estFid:  res.EstimatedFidelity,
			vec:     vec,
		})
	}
	return meter.stop(), out, nil
}

// ctHeap reruns the circuit that interned the most weights and returns the
// live heap its finished session holds: the DD and its interned weights.
func ctHeap(circs []*circuit.Circuit, last []ctSession) (float64, error) {
	k := 0
	for i, s := range last {
		if s.weights > last[k].weights {
			k = i
		}
	}
	base := liveHeapMB()
	res, err := sim.New().Run(circs[k], sim.Options{})
	if err != nil {
		return 0, err
	}
	heap := liveHeapMB() - base
	runtime.KeepAlive(res)
	return heap, nil
}

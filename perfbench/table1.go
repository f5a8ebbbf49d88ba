package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// table1-approx: both halves of Table I through batch.Run with one worker
// per CPU and fresh managers (the simd and cmd/table1 default): supremacy
// 4×4 depth 16 under the memory-driven strategy (threshold 2^14, growth
// 1.05, f_round 0.99 and 0.95) and Shor 69/a=2 and 55/a=2 under the
// fidelity-driven one (f_final 0.5, f_round 0.9). The seed picks the two
// supremacy instances; the Shor instances are fixed.
const (
	t1Threshold = 1 << 14
	t1Growth    = 1.05
	t1FinalFid  = 0.5
	t1ShorRound = 0.9
	t1Limit     = 60 * time.Second
	// t1Optimism is how far the tracked estimate may exceed the true
	// fidelity (the bound the sim package's own end-to-end tracking test
	// uses). An estimate below the truth is the safe side the fidelity
	// budget is built on, so it is reported, not failed.
	t1Optimism = 0.02
)

var t1Frounds = []float64{0.99, 0.95}

type t1Job struct {
	name     string
	circ     *circuit.Circuit
	ref      int // index into the dense references
	strategy func() core.Strategy
	fidDrive bool
}

func t1Jobs(seed int64) ([]t1Job, []*circuit.Circuit, error) {
	var shorJobs, supJobs []t1Job
	var circs []*circuit.Circuit
	for _, n := range []uint64{69, 55} {
		inst, err := shor.NewInstance(n, 2)
		if err != nil {
			return nil, nil, err
		}
		c := inst.BuildCircuit()
		locs := inst.IQFTBoundaries(c)
		circs = append(circs, c)
		shorJobs = append(shorJobs, t1Job{
			name: inst.Name(), circ: c, ref: len(circs) - 1, fidDrive: true,
			strategy: func() core.Strategy {
				s := core.NewFidelityDriven(t1FinalFid, t1ShorRound)
				s.Locations = locs
				return s
			},
		})
	}
	for _, inst := range []int64{2 * seed, 2*seed + 1} {
		cfg := supremacy.Config{Rows: 4, Cols: 4, Depth: 16, Seed: inst}
		c, err := cfg.Generate()
		if err != nil {
			return nil, nil, err
		}
		circs = append(circs, c)
		for _, f := range t1Frounds {
			supJobs = append(supJobs, t1Job{
				name: fmt.Sprintf("%s/fround=%g", cfg.Name(), f), circ: c, ref: len(circs) - 1,
				strategy: func() core.Strategy {
					return &core.MemoryDriven{Threshold: t1Threshold, RoundFidelity: f, Growth: t1Growth}
				},
			})
		}
	}
	// Longest job (Shor 69) first and shortest (Shor 55) last, so the
	// pool does not end on one long job alone.
	jobs := append([]t1Job{shorJobs[0]}, supJobs...)
	return append(jobs, shorJobs[1]), circs, nil
}

// batchClock is the benchmark's batch.Observer: it timestamps job start and
// end (queue wait, busy time, latency) and, when traced, records batch.job
// spans and opens each job's first sim.step.
type batchClock struct {
	start         time.Time
	began, ended  []time.Time
	tr            *Tracer
	probes        []*sessionProbe
	jobSpan, jobT []int64
}

func newBatchClock(n int, tr *Tracer, probes []*sessionProbe) *batchClock {
	return &batchClock{
		began: make([]time.Time, n), ended: make([]time.Time, n),
		tr: tr, probes: probes, jobSpan: make([]int64, n), jobT: make([]int64, n),
	}
}

// Each index is written by the one worker running that job.
func (b *batchClock) OnJobStart(_, idx int, _ string) {
	b.began[idx] = time.Now()
	if b.tr != nil {
		b.jobSpan[idx], b.jobT[idx] = b.tr.NewID(), b.tr.Now()
		p := b.probes[idx]
		p.parent = b.jobSpan[idx]
		p.open(b.jobT[idx])
	}
}

func (b *batchClock) OnJobDone(_ int, r batch.JobResult) {
	b.ended[r.Index] = time.Now()
	if b.tr != nil {
		b.tr.Record(Span{ID: b.jobSpan[r.Index], Job: int64(r.Index + 1), Name: "batch.job", Start: b.jobT[r.Index], End: b.tr.Now()})
	}
}

func (b *batchClock) OnWorkerDone(int, batch.WorkerStats) {}

func runTable1(cfg config) (*report, error) {
	rep := newReport()
	var jobs []t1Job
	var refs [][]complex128
	var denseS float64
	setupS, err := timeSetup(func() error {
		var circs []*circuit.Circuit
		var err error
		if jobs, circs, err = t1Jobs(cfg.seed); err != nil {
			return err
		}
		refs = refs[:0]
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
	workers := runtime.NumCPU()

	var tr *Tracer
	var totals simTotals
	var walls, cpus, gcs, goodputs, lat, heaps, busyFr, waits, cpuPerBusy []float64
	untracedCPU := 0.0
	peakDD, minEst, minTrue := 0, 1.0, 1.0
	maxGap := 0.0
	measure := func(i int) error {
		if cfg.trace && i == 1 {
			tr = newTracer()
		}
		bjobs := make([]batch.Job, len(jobs))
		probes := make([]*sessionProbe, len(jobs))
		for k, j := range jobs {
			bjobs[k] = batch.Job{Name: j.name, Circuit: j.circ, NewStrategy: j.strategy}
			if tr != nil {
				p := newSessionProbe(tr, j.circ.Len(), int64(k+1), &probeTotals{})
				probes[k] = p
				mk := j.strategy
				bjobs[k].NewStrategy = func() core.Strategy { return approxStrategy{Strategy: mk(), probe: p} }
				bjobs[k].Observer = p
			}
		}
		bc := newBatchClock(len(jobs), tr, probes)
		base := liveHeapMB()
		meter := startMeter()
		bc.start = meter.wall0
		res, err := batch.Run(context.Background(), bjobs, batch.Options{Workers: workers, Observer: bc})
		r := meter.stop()
		if err != nil {
			return err
		}
		if cfg.trace && i == 0 {
			untracedCPU = r.cpu
			return nil
		}
		walls, cpus, gcs = append(walls, r.wall), append(cpus, r.cpu), append(gcs, r.gc)
		// The live heap the finished batch holds: every job's DD and weights.
		heaps = append(heaps, liveHeapMB()-base)
		good := 0
		var busy, wait float64
		for k, jr := range res.Jobs {
			j := jobs[k]
			if jr.Err != nil {
				rep.check(false, "table1-approx %s: %v", j.name, jr.Err)
				continue
			}
			l := bc.ended[k].Sub(bc.start)
			lat = append(lat, float64(l.Nanoseconds())/1e6)
			if l <= t1Limit {
				good++
			}
			busy += bc.ended[k].Sub(bc.began[k]).Seconds()
			wait += bc.began[k].Sub(bc.start).Seconds()
			out := jr.Result
			peakDD = max(peakDD, out.MaxDDSize)
			minEst = min(minEst, out.EstimatedFidelity)
			f := fidelity(refs[j.ref], out.Manager.ToVector(out.Final, j.circ.NumQubits))
			minTrue = min(minTrue, f)
			maxGap = max(maxGap, math.Abs(out.EstimatedFidelity-f))
			floor := out.FidelityBound - 1e-6
			if j.fidDrive {
				floor = max(floor, t1FinalFid)
			}
			rep.check(out.EstimatedFidelity-f <= t1Optimism && f >= floor,
				"table1-approx %s: estimated fidelity %v, true %v, floor %v", j.name, out.EstimatedFidelity, f, floor)
			if tr != nil {
				totals.add(out)
				totals.addProbe(probes[k])
				totals.probe.attempts += probes[k].totals.attempts
				totals.probe.useful += probes[k].totals.useful
			}
		}
		goodputs = append(goodputs, float64(good)/r.wall)
		busyFr = append(busyFr, busy/(float64(res.Workers)*r.wall))
		waits = append(waits, wait)
		cpuPerBusy = append(cpuPerBusy, ratio(r.cpu, busy))
		return nil
	}
	passes, err := repeat(cfg.seconds, minPasses(cfg), measure)
	if err != nil {
		return nil, err
	}
	m["heap_mb"] = median(heaps)
	m["wall_s"], m["cpu_s"] = median(walls), median(cpus)
	m["peak_dd_nodes"] = float64(peakDD)
	m["fidelity_est"], m["fidelity_true"] = minEst, minTrue
	m["job_p50_ms"] = median(lat)
	level, tailMs := tail(lat)
	m["goodput_rps"] = median(goodputs)
	m["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	rep.note("table1-approx: %d jobs per pass on %d workers, %d passes; job latency p%g %.3f ms of %d jobs; max |est-true| fidelity %.3g (est may exceed true by %g)",
		len(jobs), workers, len(walls), level, tailMs, len(lat), maxGap, t1Optimism)

	m["dense.sim_s"] = denseS
	m["dense.dd_over_dense"] = ratio(median(walls), denseS)
	m["go.gc_cpu_s"] = median(gcs)
	m["batch.busy_frac"] = median(busyFr)
	m["batch.queue_wait_s"] = median(waits)
	m["batch.cpu_per_busy"] = median(cpuPerBusy)
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

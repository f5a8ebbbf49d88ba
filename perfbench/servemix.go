package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/qasm"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serve-mix: an open-loop generator in this process drives a cluster.Router
// (hash routing) in front of two serve.Server backends with one worker each,
// over loopback HTTP. The first half of each pass offers smLowRate jobs/s,
// the second smHighRate, on a fixed evenly spaced schedule. A share of the
// submissions repeats an earlier one (a result-cache hit); the rest are new
// small circuits that are simulated and inserted. The generator learns that
// a job finished from its event stream (client.Stream), and times each job
// from when it was due, not when it was sent.
const (
	// The rates are about 0.06 and 0.28 of the mix's closed-loop capacity
	// through the router with nproc senders (--closed-loop): 847–906 jobs/s
	// on a 2-vCPU VM.
	smLowRate     = 50.0  // jobs/s in the first half of a pass
	smHighRate    = 250.0 // jobs/s in the second half
	smPassSeconds = 4.0   // one pass: the schedule played against a fresh cluster
	smRepeatFrac  = 0.5   // share of submissions that repeat an earlier one
	smRepeatAge   = time.Second
	smShots       = 128
	smLimit       = 250 * time.Millisecond // goodput latency limit
	smJobTimeout  = 10 * time.Second
	smMemThresh   = 64
	smMemRound    = 0.98
	// Headers carrying the driver's span and job ids across the tiers.
	hdrParent = "X-Perfbench-Parent"
	hdrJob    = "X-Perfbench-Job"
)

// smRequest is one distinct submission with its reference results.
type smRequest struct {
	req     client.JobRequest
	circ    *circuit.Circuit
	probs   []float64 // dense |amplitude|² of the exact final state
	maxDD   int
	estFid  float64
	trueFid float64
}

// smSlot is one scheduled submission.
type smSlot struct {
	due  time.Duration // offset from the pass start
	req  int           // index into the distinct requests
	high bool
}

// smJob is what the generator observed for one slot.
type smJob struct {
	late, latency time.Duration
	cached        bool
	status        string
	payload       []byte
	err           error
}

// smInputs builds the schedule and the distinct requests it needs.
func smInputs(seed int64, seconds float64) ([]smSlot, []smRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	half := seconds / 2
	var slots []smSlot
	var reqs []smRequest
	var firstDue []time.Duration
	add := func(rate, from float64, high bool) error {
		for k := 0; float64(k)/rate < half; k++ {
			due := time.Duration((from + float64(k)/rate) * float64(time.Second))
			// Repeat only requests first due long enough ago to be done, so
			// a repeat is a cache hit rather than a duplicate simulation.
			old := 0
			for old < len(firstDue) && due-firstDue[old] >= smRepeatAge {
				old++
			}
			if old > 0 && rng.Float64() < smRepeatFrac {
				slots = append(slots, smSlot{due: due, req: rng.Intn(old), high: high})
				continue
			}
			r, err := smNewRequest(rng, len(reqs))
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
			firstDue = append(firstDue, due)
			slots = append(slots, smSlot{due: due, req: len(reqs) - 1, high: high})
		}
		return nil
	}
	if err := add(smLowRate, 0, false); err != nil {
		return nil, nil, err
	}
	if err := add(smHighRate, half, true); err != nil {
		return nil, nil, err
	}
	return slots, reqs, nil
}

// smNewRequest draws the k-th distinct request: a small random Clifford+T
// circuit with shots, exact or memory-driven. Its size (8–12 qubits, 30–60
// gates) and strategy cycle with k, so that every seed offers the same mix
// and the seed draws only the circuits' gates and which requests repeat.
func smNewRequest(rng *rand.Rand, k int) (smRequest, error) {
	c := gen.RandomCliffordT(8+k%5, 30+(13*k)%31, rng.Int63())
	src, err := qasm.Export(c)
	if err != nil {
		return smRequest{}, err
	}
	req := client.JobRequest{QASM: src, Shots: smShots}
	if k%2 == 1 {
		req.Strategy = serve.StrategyMemory
		req.StrategyParams, err = json.Marshal(core.MemoryDrivenParams{Threshold: smMemThresh, RoundFidelity: smMemRound, Growth: 2})
		if err != nil {
			return smRequest{}, err
		}
	}
	return smRequest{req: req, circ: c}, nil
}

// smReference computes one request's dense reference and runs the same
// simulation directly, for the values the service's payload must carry.
// A non-nil obs observes the direct run.
func smReference(r *smRequest, obs core.Observer) error {
	c := r.circ
	ds := denseRun(c)
	r.probs = make([]float64, len(ds.Amp))
	for i, a := range ds.Amp {
		r.probs[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	name := r.req.Strategy
	if name == "" {
		name = serve.StrategyExact
	}
	strat, err := core.NewStrategyByName(name, r.req.StrategyParams)
	if err != nil {
		return err
	}
	s := sim.New()
	res, err := s.Run(c, sim.Options{Strategy: strat, Observer: obs})
	if err != nil {
		return err
	}
	r.maxDD, r.estFid = res.MaxDDSize, res.EstimatedFidelity
	r.trueFid = fidelity(ds.Amp, s.M.ToVector(res.Final, c.NumQubits))
	return nil
}

// smCluster is one booted router with its backends.
type smCluster struct {
	router   *cluster.Router
	backends []*serve.Server
	servers  []*http.Server
	urls     []string // backends, then the router
	mw       *tierTrace
}

// tierTrace holds the spans-side state of the HTTP middlewares.
type tierTrace struct {
	tr       *Tracer
	rejected atomic.Int64
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func bootCluster(tr *Tracer) (*smCluster, error) {
	nproc := runtime.NumCPU()
	cl := &smCluster{mw: &tierTrace{tr: tr}}
	var backendURLs []string
	for i := 0; i < 2; i++ {
		b := serve.New(serve.Config{Workers: 1})
		cl.backends = append(cl.backends, b)
		srv, url, err := listen(cl.mw.backend(b.Handler()))
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.servers = append(cl.servers, srv)
		backendURLs = append(backendURLs, url)
	}
	rt, err := cluster.New(cluster.Config{
		Backends: backendURLs,
		Client:   &http.Client{Transport: &forwardRT{base: limitedTransport(nproc), tr: tr}},
	})
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.router = rt
	srv, url, err := listen(cl.mw.router(rt.Handler()))
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.servers = append(cl.servers, srv)
	cl.urls = append(backendURLs, url)
	return cl, nil
}

func (cl *smCluster) routerURL() string { return cl.urls[len(cl.urls)-1] }

// close stops the router's prober, the HTTP servers and the backends' pools,
// waiting for each.
func (cl *smCluster) close() {
	if cl.router != nil {
		cl.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(cl.servers) - 1; i >= 0; i-- {
		cl.servers[i].Shutdown(ctx)
	}
	for _, b := range cl.backends {
		b.Shutdown(ctx)
	}
}

// limitedTransport keeps at most n connections per host.
func limitedTransport(n int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost, t.MaxIdleConnsPerHost = n, n
	return t
}

// statusWriter captures the response status and keeps streaming working.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func requestKind(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost:
		return "submit"
	case len(r.URL.Path) > 7 && r.URL.Path[len(r.URL.Path)-7:] == "/events":
		return "events"
	default:
		return "other"
	}
}

func headerIDs(r *http.Request) (parent, job int64) {
	parent, _ = strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	job, _ = strconv.ParseInt(r.Header.Get(hdrJob), 10, 64)
	return parent, job
}

// router wraps the router's handler: a cluster.route span per request, its
// id carried in the request context that the router hands to its client.
func (t *tierTrace) router(h http.Handler) http.Handler {
	if t.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, job := headerIDs(r)
		id, start := t.tr.NewID(), t.tr.Now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, job)))
		t.tr.Record(Span{ID: id, Parent: parent, Job: job, Name: "cluster.route", Kind: requestKind(r), Start: start, End: t.tr.Now()})
	})
}

// backend wraps a backend's handler: a serve.handle span per request,
// parented by the forwarding span named in the request headers, and a count
// of 503 rejections (untraced too).
func (t *tierTrace) backend(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := t.tr.Now()
		h.ServeHTTP(sw, r)
		if sw.code == http.StatusServiceUnavailable {
			t.rejected.Add(1)
		}
		if t.tr != nil {
			parent, job := headerIDs(r)
			t.tr.Record(Span{Parent: parent, Job: job, Name: "serve.handle", Kind: requestKind(r), Start: start, End: t.tr.Now()})
		}
	})
}

// forwardRT is the router's client transport: a cluster.forward span per
// proxied request, from the call until the router closes the response body
// (for event streams, the end of the stream). It names itself to the
// backend through headers.
type forwardRT struct {
	base http.RoundTripper
	tr   *Tracer
}

func (f *forwardRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.tr == nil {
		return f.base.RoundTrip(req)
	}
	sc := spanFrom(req.Context())
	id, start := f.tr.NewID(), f.tr.Now()
	req = req.Clone(req.Context())
	req.Header.Set(hdrParent, strconv.FormatInt(id, 10))
	req.Header.Set(hdrJob, strconv.FormatInt(sc.job, 10))
	span := Span{ID: id, Parent: sc.id, Job: sc.job, Name: "cluster.forward", Kind: requestKind(req), Start: start}
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		span.End = f.tr.Now()
		f.tr.Record(span)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: f.tr, span: span}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	tr   *Tracer
	span Span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.span.End = b.tr.Now()
		b.tr.Record(b.span)
	})
	return err
}

// driverRT is the generator's transport: it tags each request with the job
// and driver span ids carried in the request context.
type driverRT struct{ base http.RoundTripper }

func (d driverRT) RoundTrip(req *http.Request) (*http.Response, error) {
	sc := spanFrom(req.Context())
	if sc.job == 0 {
		return d.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(hdrParent, strconv.FormatInt(sc.id, 10))
	req.Header.Set(hdrJob, strconv.FormatInt(sc.job, 10))
	return d.base.RoundTrip(req)
}

// smPassResult is what one pass observed.
type smPassResult struct {
	reading
	jobs     []smJob
	stats    []client.Stats // per backend, after the schedule
	busyLow  float64        // worker busy seconds when the high rate began
	heap     float64        // live heap the cluster holds after the schedule
	rejected int64          // 503s the backends answered
}

// smPass boots a cluster, plays the schedule against it, and shuts it down.
// Open loop, each job is sent when due; closed loop, each of the nproc
// senders sends its next job when its previous one finished, and a job is
// due when it is sent.
func smPass(slots []smSlot, reqs []smRequest, tr *Tracer, closed bool) (*smPassResult, error) {
	cl, err := bootCluster(tr)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nproc := runtime.NumCPU()
	cc := client.New(cl.routerURL(), client.WithHTTPClient(driverHTTPClient(nproc)))
	base := liveHeapMB()
	jobs := make([]smJob, len(slots))
	var next atomic.Int64
	var wg sync.WaitGroup
	meter := startMeter()
	origin := meter.wall0
	res := &smPassResult{}
	if !closed {
		// Read the workers' busy time where the high rate begins.
		split := len(slots)
		for split > 0 && slots[split-1].high {
			split--
		}
		if split < len(slots) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Until(origin.Add(slots[split].due)))
				res.busyLow, _ = cl.busy()
			}()
		}
	}
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(slots) {
					return
				}
				due := time.Now()
				if !closed {
					due = origin.Add(slots[j].due)
					time.Sleep(time.Until(due))
				}
				jobs[j] = smRun(cc, reqs[slots[j].req].req, due, int64(j+1), tr)
			}
		}()
	}
	wg.Wait()
	res.reading = meter.stop()
	res.jobs = jobs
	res.heap = liveHeapMB() - base
	for i := range cl.backends {
		st, err := client.New(cl.urls[i]).Stats(context.Background())
		if err != nil {
			return nil, err
		}
		res.stats = append(res.stats, *st)
	}
	res.rejected = cl.mw.rejected.Load()
	return res, nil
}

// busy returns the backends' summed worker busy seconds so far.
func (cl *smCluster) busy() (float64, error) {
	total := 0.0
	for i := range cl.backends {
		st, err := client.New(cl.urls[i]).Stats(context.Background())
		if err != nil {
			return 0, err
		}
		total += statsBusy(*st)
	}
	return total, nil
}

func statsBusy(st client.Stats) float64 {
	busy := 0.0
	for _, w := range st.Pool.PerWorker {
		busy += w.Busy.Seconds()
	}
	return busy
}

// driverHTTPClient is the generator's HTTP client: at most n connections,
// tagging requests with the job and span carried in their context.
func driverHTTPClient(n int) *http.Client {
	return &http.Client{Transport: driverRT{base: limitedTransport(n)}}
}

// smRun submits one job, follows its event stream to the terminal event,
// and returns what it saw, timed from when the job was due.
func smRun(cc *client.Client, req client.JobRequest, due time.Time, job int64, tr *Tracer) smJob {
	out := smJob{late: time.Since(due)}
	ctx, cancel := context.WithTimeout(context.Background(), smJobTimeout)
	defer cancel()
	id, start := tr.NewID(), tr.Now()
	if tr != nil {
		ctx = withSpan(ctx, id, job)
	}
	st, err := cc.Submit(ctx, req)
	if err != nil {
		out.err = err
		return out
	}
	out.cached = st.Cached
	var terminal time.Time
	final, err := cc.Stream(ctx, st.ID, func(e client.Event) error {
		if e.Type == client.EventStatus {
			terminal = time.Now()
		}
		return nil
	})
	if err != nil {
		out.err = err
		return out
	}
	out.latency = terminal.Sub(due)
	out.status, out.payload = final.Status, final.Result
	tr.Record(Span{ID: id, Job: job, Name: "driver.job", Start: start, End: tr.Now()})
	return out
}

func runServeMix(cfg config) (*report, error) {
	rep := newReport()
	var slots []smSlot
	var reqs []smRequest
	setupS, err := timeSetup(func() error {
		var err error
		if slots, reqs, err = smInputs(cfg.seed, smPassSeconds); err != nil {
			return err
		}
		for i := range reqs {
			if err := smReference(&reqs[i], nil); err != nil {
				return err
			}
		}
		cl, err := bootCluster(nil)
		if err != nil {
			return err
		}
		cl.close()
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	m["setup_s"] = setupS

	// Each pass plays the schedule against a freshly booted cluster (cold
	// cache, empty job registry); the end-to-end figures are medians over
	// passes and the tails are read from every pass's samples pooled.
	var tr *Tracer
	var last *smPassResult
	var lastTally *smTally
	var walls, cpus, gcs, heaps, p50s, goodputs, busyLow, busyHigh []float64
	var pooled smTally
	untracedCPU := 0.0
	minEst, minTrue := 1.0, 1.0
	measure := func(i int) error {
		if cfg.trace && i >= 1 {
			tr = newTracer() // pass 0 is the untraced comparison pass
		}
		r, err := smPass(slots, reqs, tr, false)
		if err != nil {
			return err
		}
		if cfg.trace && i == 0 {
			untracedCPU = r.cpu
			return nil
		}
		t, err := smTallyPass(rep, r, slots, reqs)
		if err != nil {
			return err
		}
		walls, cpus, gcs, heaps = append(walls, r.wall), append(cpus, r.cpu), append(gcs, r.gc), append(heaps, r.heap)
		p50s = append(p50s, median(t.lowLat))
		goodputs = append(goodputs, ratio(float64(t.goodHigh), t.highWindow))
		busyLow = append(busyLow, ratio(r.busyLow, float64(t.workers)*smPassSeconds/2))
		busyHigh = append(busyHigh, ratio(t.busy-r.busyLow, float64(t.workers)*(r.wall-smPassSeconds/2)))
		pooled.lowLat, pooled.highLat = append(pooled.lowLat, t.lowLat...), append(pooled.highLat, t.highLat...)
		pooled.lowLate, pooled.highLate = append(pooled.lowLate, t.lowLate...), append(pooled.highLate, t.highLate...)
		minEst, minTrue = min(minEst, t.minEst), min(minTrue, t.minTrue)
		last, lastTally = r, t
		return nil
	}
	if _, err := repeat(cfg.seconds, minPasses(cfg), measure); err != nil {
		return nil, err
	}
	t := lastTally
	m["wall_s"], m["cpu_s"], m["go.gc_cpu_s"] = median(walls), median(cpus), median(gcs)
	m["heap_mb"] = median(heaps)
	// The mean over simulated jobs: the largest single DD depends on which
	// few large circuits the seed happens to draw.
	peakDD := 0.0
	for _, d := range t.missDD {
		peakDD += d / float64(len(t.missDD))
	}
	m["peak_dd_nodes"] = peakDD
	m["fidelity_est"], m["fidelity_true"] = minEst, minTrue
	m["job_p50_ms"] = median(p50s)
	m["goodput_rps"] = median(goodputs)
	m["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	lowLevel, lowTail := tail(pooled.lowLat)
	highLevel, highTail := tail(pooled.highLat)
	rep.note("serve-mix: %d passes of %d jobs (%d hits, %d misses, %d distinct) at %g then %g jobs/s for %gs each",
		len(walls), len(t.lowLat)+len(t.highLat), t.hits, t.misses, len(reqs), smLowRate, smHighRate, smPassSeconds/2)
	rep.note("serve-mix low.job_p50_ms=%.3f low.job_p%g_ms=%.3f (n=%d) high.job_p50_ms=%.3f high.job_p%g_ms=%.3f (n=%d) high.goodput_rps=%.2f (limit %v)",
		median(pooled.lowLat), lowLevel, lowTail, len(pooled.lowLat), median(pooled.highLat), highLevel, highTail, len(pooled.highLat), m["goodput_rps"], smLimit)
	rep.note("serve-mix per rate: low busy_frac=%.3f late_ms_p99=%.3f; high busy_frac=%.3f late_ms_p99=%.3f",
		median(busyLow), percentile(sortedCopy(pooled.lowLate), 99), median(busyHigh), percentile(sortedCopy(pooled.highLate), 99))

	m["driver.late_ms_p99"] = percentile(sortedCopy(append(pooled.lowLate, pooled.highLate...)), 99)
	m["driver.low_p50_ms"], m["driver.low_tail_ms"] = median(pooled.lowLat), lowTail
	m["driver.high_p50_ms"], m["driver.high_tail_ms"] = median(pooled.highLat), highTail
	m["driver.high_goodput_rps"] = m["goodput_rps"]
	m["serve.cache_hit_rate"] = ratio(t.cacheHits, t.cacheHits+t.cacheMisses)
	m["serve.rejected"] = float64(last.rejected)
	m["serve.sim_ms_p50"] = median(t.simMs)
	m["batch.busy_frac"] = ratio(t.busy, float64(t.workers)*last.wall)
	m["batch.cpu_per_busy"] = ratio(last.cpu, t.busy)
	m["dd.nodes_created"] = t.nodes
	m["dd.cleanups"] = t.cleanups
	m["cnum.peak_weights"] = float64(t.peakWeights)
	m["cnum.weights_per_node"] = ratio(float64(t.peakWeights), peakDD)
	m["core.rounds"], m["core.nodes_removed"] = t.rounds, t.removed
	if cfg.trace {
		// The service runs its simulations out of the benchmark's reach, so
		// the per-quarter gate times come from probed direct runs of the
		// same circuits, on a tracer of their own.
		var totals simTotals
		refTr := newTracer()
		for i := range reqs {
			p := newSessionProbe(refTr, reqs[i].circ.Len(), int64(i+1), &totals.probe)
			if err := smReference(&reqs[i], p); err != nil {
				return nil, err
			}
			totals.addProbe(p)
		}
		totals.fillGates(m)
		// The other span metrics come from the last traced pass.
		spans := tr.Spans()
		smSpanMetrics(m, spans, last.jobs)
		m["trace.overhead_frac"] = ratio(median(cpus)-untracedCPU, untracedCPU)
		rep.note("%s", layerNote(spans))
		if err := writeSpans(cfg, tr, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// smTally is what one pass's jobs showed, after their checks.
type smTally struct {
	lowLat, highLat, lowLate, highLate []float64 // ms
	simMs, missDD                      []float64
	hits, misses, goodHigh             int
	highWindow                         float64 // s from the first high-rate due time to the last high-rate job's end
	minEst, minTrue                    float64
	nodes, cleanups, rounds, removed   float64
	peakWeights                        int
	cacheHits, cacheMisses, busy       float64 // from the backends' stats
	workers                            int
}

// smTallyPass checks every job of one pass (done; payload matches the
// reference run and the dense distribution; a cache hit is byte-identical
// to the pass's first miss) and sorts what the jobs observed.
func smTallyPass(rep *report, r *smPassResult, slots []smSlot, reqs []smRequest) (*smTally, error) {
	t := &smTally{minEst: 1, minTrue: 1}
	firstMiss := make(map[int][]byte)
	highStart, highEnd := time.Duration(-1), time.Duration(0)
	for j, job := range r.jobs {
		s := slots[j]
		ref := &reqs[s.req]
		lateMs := float64(job.late.Nanoseconds()) / 1e6
		if s.high {
			t.highLate = append(t.highLate, lateMs)
			if highStart < 0 {
				highStart = s.due
			}
		} else {
			t.lowLate = append(t.lowLate, lateMs)
		}
		ok, why := smCheck(job, ref, firstMiss, s.req)
		rep.check(ok, "serve-mix job %d: %s", j, why)
		if !ok {
			continue
		}
		var p serve.ResultPayload
		if err := json.Unmarshal(job.payload, &p); err != nil {
			return nil, err
		}
		ms := float64(job.latency.Nanoseconds()) / 1e6
		if s.high {
			t.highLat = append(t.highLat, ms)
			highEnd = max(highEnd, s.due+job.latency)
			if job.latency <= smLimit {
				t.goodHigh++
			}
		} else {
			t.lowLat = append(t.lowLat, ms)
		}
		if job.cached {
			t.hits++
		} else {
			t.misses++
			t.simMs = append(t.simMs, p.RuntimeMS)
			t.missDD = append(t.missDD, float64(p.MaxDDSize))
			t.nodes += float64(p.DD.VNodesCreated + p.DD.MNodesCreated)
			t.cleanups += float64(p.DD.Cleanups)
			t.peakWeights = max(t.peakWeights, p.DD.ComplexValues)
			t.rounds += float64(len(p.Rounds))
			for _, rd := range p.Rounds {
				t.removed += float64(rd.RemovedNodes)
			}
		}
		t.minEst = min(t.minEst, p.EstimatedFidelity)
		t.minTrue = min(t.minTrue, ref.trueFid)
	}
	if highStart >= 0 {
		t.highWindow = (highEnd - highStart).Seconds()
	}
	for _, st := range r.stats {
		t.cacheHits += float64(st.Cache.Hits)
		t.cacheMisses += float64(st.Cache.Misses)
		t.busy += statsBusy(st)
		t.workers += len(st.Pool.PerWorker)
	}
	return t, nil
}

// smCheck verifies one job against its reference.
func smCheck(job smJob, ref *smRequest, firstMiss map[int][]byte, req int) (bool, string) {
	if job.err != nil {
		return false, job.err.Error()
	}
	if job.status != client.StatusDone {
		return false, "status " + job.status
	}
	var p serve.ResultPayload
	if err := json.Unmarshal(job.payload, &p); err != nil {
		return false, fmt.Sprintf("payload: %v", err)
	}
	if p.MaxDDSize != ref.maxDD || p.EstimatedFidelity != ref.estFid {
		return false, fmt.Sprintf("payload max_dd_size %d, estimated_fidelity %v; direct run gives %d, %v",
			p.MaxDDSize, p.EstimatedFidelity, ref.maxDD, ref.estFid)
	}
	// An exact state's samples must lie in the dense state's support. (An
	// approximation round followed by more gates can move weight outside
	// the exact final state's support, so approximate runs skip this.)
	exact := ref.estFid == 1
	shots := 0
	for bits, n := range p.Samples {
		idx, err := strconv.ParseUint(bits, 2, 64)
		if err != nil || idx >= uint64(len(ref.probs)) || (exact && ref.probs[idx] < 1e-12) {
			return false, fmt.Sprintf("sampled outcome %q has no weight in the dense state", bits)
		}
		shots += n
	}
	if shots != smShots {
		return false, fmt.Sprintf("%d samples, want %d", shots, smShots)
	}
	if job.cached {
		if first, ok := firstMiss[req]; ok && !bytes.Equal(first, job.payload) {
			return false, "cache hit payload differs from the first miss"
		}
	} else if _, ok := firstMiss[req]; !ok {
		firstMiss[req] = job.payload
	}
	return true, ""
}

// smSpanMetrics derives the serve and cluster per-layer metrics from spans.
func smSpanMetrics(m map[string]float64, spans []Span, jobs []smJob) {
	self := selfTimes(spans)
	var submit, routeSelf, forward []float64
	routeByJob := make(map[int64]float64)
	for _, s := range spans {
		ms := float64(s.Dur()) / float64(time.Millisecond)
		switch {
		case s.Name == "serve.handle" && s.Kind == "submit":
			submit = append(submit, ms)
		case s.Name == "cluster.forward" && s.Kind == "submit":
			forward = append(forward, ms)
		case s.Name == "cluster.route":
			routeByJob[s.Job] += ms
			if s.Kind == "submit" {
				routeSelf = append(routeSelf, float64(self[s.ID])/float64(time.Millisecond))
			}
		}
	}
	var share []float64
	for j, job := range jobs {
		if job.cached && job.latency > 0 {
			share = append(share, routeByJob[int64(j+1)]/(float64(job.latency)/float64(time.Millisecond)))
		}
	}
	m["serve.submit_ms_p50"] = median(submit)
	m["cluster.route_self_ms_p50"] = median(routeSelf)
	m["cluster.forward_ms_p50"] = median(forward)
	m["cluster.hit_span_share"] = median(share)
}

// smCapacity measures the closed-loop capacity of the serve-mix: the same
// seeded schedule as a serve-mix pass, sent by nproc senders through the
// router, each sending its next job as soon as its previous one finished,
// against a fresh cluster per pass for the given seconds. Its jobs/s (the
// median over passes) is the knee the open-loop rates are fractions of.
func smCapacity(cfg config) (*report, error) {
	rep := newReport()
	slots, reqs, err := smInputs(cfg.seed, smPassSeconds)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		if err := smReference(&reqs[i], nil); err != nil {
			return nil, err
		}
	}
	var rates, p50s, busy []float64
	_, err = repeat(cfg.seconds, 1, func(int) error {
		r, err := smPass(slots, reqs, nil, true)
		if err != nil {
			return err
		}
		t, err := smTallyPass(rep, r, slots, reqs)
		if err != nil {
			return err
		}
		rates = append(rates, float64(len(r.jobs))/r.wall)
		p50s = append(p50s, median(append(t.lowLat, t.highLat...)))
		busy = append(busy, ratio(t.busy, float64(t.workers)*r.wall))
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	m["capacity_rps"], m["job_p50_ms"], m["batch.busy_frac"] = median(rates), median(p50s), median(busy)
	rep.note("serve-mix closed loop: %d passes of %d jobs by %d senders; low rate %g = %.3f of capacity, high rate %g = %.3f",
		len(rates), len(slots), runtime.NumCPU(), smLowRate, smLowRate/m["capacity_rps"], smHighRate, smHighRate/m["capacity_rps"])
	return rep, nil
}

package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/core"
	"repro/internal/sim"
)

// Job is one independent simulation.
type Job struct {
	// Name labels the job in results and progress reports.
	Name string
	// Circuit to simulate. Must be non-nil; a nil circuit fails the job
	// (not the batch).
	Circuit *circuit.Circuit
	// Options for the run. Options.Strategy must not be shared with any
	// other job in the batch: strategies are stateful per run, so two
	// workers driving one strategy instance race. Prefer NewStrategy.
	// A zero Options.MeasurementSeed is replaced by the derived per-job
	// seed (see Seed); a non-zero seed is kept verbatim.
	Options sim.Options
	// NewStrategy, when non-nil, constructs a fresh strategy for this
	// job's run, overriding Options.Strategy. This is the safe way to give
	// many jobs the "same" (stateful) strategy configuration.
	NewStrategy func() core.Strategy
	// Observer, when non-nil, receives this job's simulation lifecycle
	// events (per-gate sizes, approximation rounds, cleanups, completion),
	// overriding Options.Observer. It is invoked on the worker goroutine
	// running the job; like strategies, observers that keep state must not
	// be shared between jobs unless they synchronize internally. The
	// simulation service uses this to feed per-job event streams.
	Observer core.Observer
	// Timeout bounds this job's simulation; it takes precedence over
	// Options.JobTimeout. Zero means no per-job override. An explicit
	// Options.Deadline wins over both.
	Timeout time.Duration
	// Finalize, when non-nil, runs on the worker goroutine immediately
	// after the simulation finishes (on success, on failure, and after a
	// recovered panic alike), so post-processing such as sampling runs in
	// parallel with the other workers. Each job gets a fresh DD manager, so
	// r.Result (when non-nil) stays valid after Finalize returns too.
	// Mutations to r are reflected in the reported JobResult.
	Finalize func(r *JobResult)
}

// JobResult is the outcome of one job.
type JobResult struct {
	// Index is the job's position in the input slice.
	Index int
	// Name echoes Job.Name.
	Name string
	// Worker is the worker that ran the job, -1 if it was never started.
	Worker int
	// Seed is the measurement seed the run actually used.
	Seed int64
	// Result is the simulation result, nil on error.
	Result *sim.Result
	// Elapsed is the wall-clock time the job occupied its worker,
	// including failed and timed-out attempts (zero for jobs that never
	// started).
	Elapsed time.Duration
	// Err is the simulation error, the per-job deadline error (wrapping
	// sim.ErrDeadlineExceeded), an error wrapping ErrJobPanicked when the
	// run panicked, or the batch context's cancellation cause for jobs that
	// never started.
	Err error
}

// Canceled reports whether the job was aborted by cancellation — standard
// context cancellation, a context deadline, or the pool's ErrCanceled cause
// (either before starting or between gates) — rather than failing on its
// own. Run additionally classifies jobs aborted with a custom cancellation
// cause (context.WithCancelCause) as canceled when counting Result.Canceled.
func (r JobResult) Canceled() bool {
	return errors.Is(r.Err, context.Canceled) ||
		errors.Is(r.Err, context.DeadlineExceeded) ||
		errors.Is(r.Err, ErrCanceled)
}

// Result aggregates a finished batch.
type Result struct {
	// Jobs holds one entry per input job, ordered by job index.
	Jobs []JobResult
	// Workers is the number of worker goroutines used.
	Workers int
	// WallTime is the elapsed time of the whole batch.
	WallTime time.Duration
	// CPUTime is the sum of the per-job elapsed times, including failed
	// and timed-out jobs. Each job's elapsed time is its own wall clock,
	// so as long as workers do not oversubscribe physical cores this is
	// the cost a one-worker run would pay, and WallTime approaches
	// CPUTime/Workers for balanced jobs; with more workers than cores,
	// time-sharing inflates it.
	CPUTime time.Duration
	// Completed, Failed, and Canceled count jobs by outcome.
	Completed, Failed, Canceled int
	// PerWorker holds one aggregate entry per worker goroutine, indexed by
	// worker id (JobResult.Worker).
	PerWorker []WorkerStats
}

// Options configures a batch run.
type Options struct {
	// Workers is the worker-pool size; values ≤ 0 select
	// runtime.GOMAXPROCS(0). The pool never exceeds the job count.
	Workers int
	// BaseSeed derives each job's measurement seed as Seed(BaseSeed,
	// index), keeping measurement and reset outcomes deterministic and
	// distinct across jobs for any worker count.
	BaseSeed int64
	// JobTimeout bounds every job's simulation (Job.Timeout overrides it
	// per job). Zero means no limit.
	JobTimeout time.Duration
	// Observer, when non-nil, receives batch-lifecycle events: per-job
	// start/done on the job's worker, and one WorkerStats summary per
	// worker. See Observer for the concurrency contract.
	Observer Observer
	// Progress, when non-nil, is called after each job finishes with the
	// number of finished jobs, the total, and that job's result. Calls are
	// serialized; done reaches total unless the batch is canceled.
	Progress func(done, total int, r JobResult)
}

// Run executes the jobs on a worker pool and returns the aggregated result.
// Per-job failures are reported in Result.Jobs, not as a Run error; the
// returned error is non-nil only when ctx was canceled, in which case the
// partial Result is still returned (unstarted jobs carry the cancellation
// cause as their Err).
func Run(ctx context.Context, jobs []Job, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	res := &Result{
		Jobs:      make([]JobResult, len(jobs)),
		Workers:   workers,
		PerWorker: make([]WorkerStats, workers),
	}
	if len(jobs) == 0 {
		return res, nil
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes the done counter and Progress calls
		done int
	)
	report := func(jr JobResult) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.Progress != nil {
			opts.Progress(done, len(jobs), jr)
		}
	}

	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ws := &res.PerWorker[worker] // workers only touch their own entry
			for idx := range idxCh {
				if opts.Observer != nil {
					opts.Observer.OnJobStart(worker, idx, jobs[idx].Name)
				}
				jr := runJob(ctx, worker, idx, jobs[idx], opts)
				res.Jobs[idx] = jr // each index is written exactly once
				ws.Jobs++
				ws.Busy += jr.Elapsed
				if opts.Observer != nil {
					opts.Observer.OnJobDone(worker, jr)
				}
				report(jr)
			}
			if opts.Observer != nil {
				opts.Observer.OnWorkerDone(worker, *ws)
			}
		}(w)
	}

	// Dispatch in index order; on cancellation, mark the undispatched tail
	// (no worker ever observes those indices, so the writes are safe).
	next := len(jobs)
dispatch:
	for i := range jobs {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			next = i
			break dispatch
		}
	}
	close(idxCh)
	wg.Wait()
	for i := next; i < len(jobs); i++ {
		res.Jobs[i] = JobResult{
			Index: i, Name: jobs[i].Name, Worker: -1, Err: context.Cause(ctx),
		}
	}

	cause := context.Cause(ctx)
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		res.CPUTime += jr.Elapsed
		switch {
		case jr.Err == nil:
			res.Completed++
		case jr.Canceled(), cause != nil && errors.Is(jr.Err, cause):
			res.Canceled++
		default:
			res.Failed++
		}
	}
	res.WallTime = time.Since(start)
	return res, cause
}

// runJob executes one job on a fresh simulator.
func runJob(ctx context.Context, worker, idx int, job Job, opts Options) (jr JobResult) {
	if job.Finalize != nil {
		defer func() { job.Finalize(&jr) }()
	}
	jr = JobResult{Index: idx, Name: job.Name, Worker: worker}
	if err := context.Cause(ctx); err != nil {
		jr.Err = err
		return jr
	}
	if job.Circuit == nil {
		jr.Err = fmt.Errorf("batch: job %d (%s): nil circuit", idx, job.Name)
		return jr
	}
	o := job.Options
	if o.Context == nil {
		o.Context = ctx
	}
	if o.MeasurementSeed == 0 {
		o.MeasurementSeed = Seed(opts.BaseSeed, idx)
	}
	jr.Seed = o.MeasurementSeed
	if o.Deadline.IsZero() {
		timeout := job.Timeout
		if timeout <= 0 {
			timeout = opts.JobTimeout
		}
		if timeout > 0 {
			o.Deadline = time.Now().Add(timeout)
		}
	}
	if job.Observer != nil {
		o.Observer = job.Observer
	}
	begin := time.Now()
	jr.Result, jr.Err = simulate(job, o)
	jr.Elapsed = time.Since(begin)
	return jr
}

// simulate runs the job on a fresh simulator. A panic in the engine or in a
// user strategy fails only this job, with an error wrapping ErrJobPanicked
// that carries the panic value; the manager it panicked on is dropped with
// it.
func simulate(job Job, o sim.Options) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrJobPanicked, v)
		}
	}()
	if job.NewStrategy != nil {
		o.Strategy = job.NewStrategy()
	}
	return sim.New().Run(job.Circuit, o)
}

// Seed derives the measurement seed for the job at the given index from a
// batch base seed, via the SplitMix64 finalizer: well-spread, non-zero
// for index ≥ 0, and stable across worker counts.
func Seed(base int64, index int) int64 {
	z := cnum.Mix64(uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15)
	if z == 0 { // zero means "derive" to the engine; never hand it back
		z = 0x9E3779B97F4A7C15
	}
	return int64(z)
}

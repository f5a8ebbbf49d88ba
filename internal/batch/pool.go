package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Typed pool errors. Submit returns the first two; the third is the default
// cancellation cause. All are errors.Is-able end to end: the HTTP service
// maps them to error codes and the client maps the codes back to these
// sentinels. ErrJobPanicked marks a job whose run panicked (see
// JobResult.Err).
var (
	// ErrShutdown is returned by Submit after Close or Shutdown.
	ErrShutdown = errors.New("batch: pool closed")
	// ErrQueueFull is returned by Submit when the bounded queue is full,
	// so callers (e.g. an HTTP service) can shed load instead of blocking.
	ErrQueueFull = errors.New("batch: pool queue full")
	// ErrCanceled is the cancellation cause used by CancelAll and
	// Handle.Cancel when the caller passes nil; JobResult.Canceled reports
	// true for it.
	ErrCanceled = errors.New("batch: job canceled")
	// ErrJobPanicked is wrapped by the error of a job whose simulation (or
	// strategy construction) panicked. The panic fails that job only.
	ErrJobPanicked = errors.New("batch: job panicked")
)

// PoolOptions configures an open-ended worker pool.
type PoolOptions struct {
	// Workers is the worker-goroutine count; values ≤ 0 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of submitted-but-not-yet-started jobs;
	// values ≤ 0 select 4×Workers. When the queue is full Submit fails
	// with ErrQueueFull instead of blocking, so callers (e.g. an HTTP
	// service) can shed load.
	QueueDepth int
	// BaseSeed derives measurement seeds for jobs whose Options leave
	// MeasurementSeed zero, exactly as Options.BaseSeed does for Run:
	// Seed(BaseSeed, submissionIndex).
	BaseSeed int64
	// JobTimeout bounds every job's simulation unless the job carries its
	// own Timeout. Zero means no limit.
	JobTimeout time.Duration
}

// Pool is the open-ended counterpart of Run: instead of executing one closed
// batch, it accepts jobs one at a time and returns a Handle per job, so
// long-lived callers (the simulation service in internal/serve) can submit,
// poll, and cancel independent simulations against a fixed worker pool.
//
// The determinism contract matches Run: a job's outcome depends only on its
// circuit, its options, and the seed derived from PoolOptions.BaseSeed and
// its submission index — never on which worker runs it. Every job runs on a
// fresh manager.
type Pool struct {
	opts    PoolOptions
	workers int
	depth   int

	ctx    context.Context // parent of every job context; canceled by CancelAll
	cancel context.CancelCauseFunc

	queue chan *Handle
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	next   int

	start time.Time

	queued    atomic.Int64
	running   atomic.Int64
	finished  atomic.Int64
	submitted atomic.Int64

	perWorker []workerCounters
}

// workerCounters holds one worker's lifetime statistics, padded to a cache
// line: every worker bumps its own counters after every job, and co-locating
// two workers' hot counters on one line makes those updates contend
// (false sharing) even though they touch disjoint fields.
type workerCounters struct {
	jobs      atomic.Int64
	busyNanos atomic.Int64
	_         [48]byte
}

// Handle tracks one submitted job through the pool.
type Handle struct {
	index  int
	job    Job
	ctx    context.Context
	cancel context.CancelCauseFunc

	started atomic.Bool
	done    chan struct{}
	res     JobResult // written by the worker before done is closed
}

// NewPool starts the workers and returns a pool ready for Submit.
func NewPool(opts PoolOptions) *Pool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	p := &Pool{
		opts:      opts,
		workers:   workers,
		depth:     depth,
		ctx:       ctx,
		cancel:    cancel,
		queue:     make(chan *Handle, depth),
		start:     time.Now(),
		perWorker: make([]workerCounters, workers),
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	wc := &p.perWorker[id]
	opts := Options{
		BaseSeed:   p.opts.BaseSeed,
		JobTimeout: p.opts.JobTimeout,
	}
	for h := range p.queue {
		p.queued.Add(-1)
		h.started.Store(true)
		p.running.Add(1)
		h.res = runJob(h.ctx, id, h.index, h.job, opts)
		wc.jobs.Add(1)
		wc.busyNanos.Add(int64(h.res.Elapsed))
		// Release the job context: this detaches it from the pool context's
		// children (it would otherwise stay registered — and leak — for the
		// pool's lifetime). The job is over, so the cause is never observed.
		h.cancel(context.Canceled)
		p.running.Add(-1)
		p.finished.Add(1)
		close(h.done)
	}
}

// Submit enqueues one job and returns its handle without blocking. It fails
// with ErrQueueFull when the bounded queue is full and ErrShutdown after
// Close/Shutdown. The job's measurement seed derives from the submission
// index exactly as in a closed batch (see PoolOptions.BaseSeed).
func (p *Pool) Submit(job Job) (*Handle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrShutdown
	}
	ctx, cancel := context.WithCancelCause(p.ctx)
	h := &Handle{
		index:  p.next,
		job:    job,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	select {
	case p.queue <- h:
		p.next++
		p.queued.Add(1)
		p.submitted.Add(1)
		return h, nil
	default:
		cancel(ErrQueueFull) // release the context; the handle is dropped
		return nil, ErrQueueFull
	}
}

// Close stops accepting new jobs, drains the queue, and waits for in-flight
// jobs to finish. It is safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// CancelAll cancels every queued and in-flight job with the given cause
// (ErrCanceled when nil). The pool keeps accepting new jobs; combine
// with Close (or use Shutdown) to tear the pool down.
func (p *Pool) CancelAll(cause error) {
	if cause == nil {
		cause = ErrCanceled
	}
	p.cancel(cause)
}

// Shutdown closes the pool gracefully: it stops accepting jobs and waits for
// queued and running jobs to drain. If ctx expires first, every remaining
// job is canceled (with the context's cause) and Shutdown waits for the
// workers to acknowledge, returning ctx.Err().
func (p *Pool) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.CancelAll(context.Cause(ctx))
		<-done
		return ctx.Err()
	}
}

// PoolState is a point-in-time snapshot of pool occupancy.
type PoolState struct {
	// Workers and QueueDepth echo the resolved configuration.
	Workers    int
	QueueDepth int
	// Queued and Running count jobs waiting in the queue and executing on
	// workers right now.
	Queued  int
	Running int
	// Submitted and Finished count jobs over the pool's lifetime (Finished
	// includes failed and canceled jobs).
	Submitted int64
	Finished  int64
	// Uptime is the time since the pool started.
	Uptime time.Duration
	// PerWorker holds one lifetime entry per worker goroutine, indexed by
	// worker id.
	PerWorker []PoolWorkerState
}

// PoolWorkerState is one worker's lifetime statistics in a PoolState
// snapshot.
type PoolWorkerState struct {
	WorkerStats
	// Utilization is the fraction of the pool's uptime this worker spent
	// running jobs (Busy / Uptime).
	Utilization float64
}

// State returns a snapshot of pool occupancy.
func (p *Pool) State() PoolState {
	uptime := time.Since(p.start)
	st := PoolState{
		Workers:    p.workers,
		QueueDepth: p.depth,
		Queued:     int(p.queued.Load()),
		Running:    int(p.running.Load()),
		Submitted:  p.submitted.Load(),
		Finished:   p.finished.Load(),
		Uptime:     uptime,
		PerWorker:  make([]PoolWorkerState, p.workers),
	}
	for i := range p.perWorker {
		wc := &p.perWorker[i]
		busy := time.Duration(wc.busyNanos.Load())
		st.PerWorker[i] = PoolWorkerState{
			WorkerStats: WorkerStats{
				Jobs: int(wc.jobs.Load()),
				Busy: busy,
			},
		}
		if uptime > 0 {
			st.PerWorker[i].Utilization = float64(busy) / float64(uptime)
		}
	}
	return st
}

// Index returns the job's submission index (the seed-derivation index).
func (h *Handle) Index() int { return h.index }

// Started reports whether a worker has picked the job up. It keeps reporting
// true after the job finishes.
func (h *Handle) Started() bool { return h.started.Load() }

// Done returns a channel closed when the job has finished (in any state).
func (h *Handle) Done() <-chan struct{} { return h.done }

// Result returns the job result and true once the job has finished, or a
// zero JobResult and false while it is still queued or running.
func (h *Handle) Result() (JobResult, bool) {
	select {
	case <-h.done:
		return h.res, true
	default:
		return JobResult{}, false
	}
}

// Wait blocks until the job finishes or ctx expires. Note that ctx expiring
// does not cancel the job itself — use Cancel for that.
func (h *Handle) Wait(ctx context.Context) (JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-h.done:
		return h.res, nil
	case <-ctx.Done():
		return JobResult{}, context.Cause(ctx)
	}
}

// Cancel aborts the job with the given cause (ErrCanceled when nil):
// queued jobs fail without running, in-flight simulations stop between
// gates. Canceling a finished job is a no-op.
func (h *Handle) Cancel(cause error) {
	if cause == nil {
		cause = ErrCanceled
	}
	h.cancel(cause)
}

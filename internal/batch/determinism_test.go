package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// snapshotJobs builds approximation jobs whose Finalize captures the full
// final-state amplitude vector on the worker.
func snapshotJobs(n, qubits int, vecs [][]complex128) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		idx := i
		c := gen.RandomCliffordT(qubits, 120, int64(i))
		jobs[i] = Job{
			Name:    fmt.Sprintf("rct_seed%d", i),
			Circuit: c,
			NewStrategy: func() core.Strategy {
				return &core.MemoryDriven{Threshold: 16, RoundFidelity: 0.95, Growth: 1.2}
			},
			Finalize: func(r *JobResult) {
				if r.Result != nil {
					vecs[idx] = r.Result.Manager.ToVector(r.Result.Final, qubits)
				}
			},
		}
	}
	return jobs
}

// TestBitIdenticalAcrossWorkersAndReuse is the engine's central determinism
// claim: every job's full amplitude vector (and every deterministic result
// field) is bit-identical — no tolerance — across worker counts 1/2/4, with
// a fresh manager per job.
func TestBitIdenticalAcrossWorkersAndReuse(t *testing.T) {
	const nJobs, qubits = 8, 7
	type mode struct {
		name    string
		workers int
	}
	modes := []mode{
		{"serial", 1},
		{"workers2", 2},
		{"workers4", 4},
	}

	var refVecs [][]complex128
	var refKeys []jobKey
	for _, md := range modes {
		vecs := make([][]complex128, nJobs)
		jobs := snapshotJobs(nJobs, qubits, vecs)
		res, err := Run(context.Background(), jobs, Options{
			Workers: md.workers, BaseSeed: 42,
		})
		if err != nil {
			t.Fatalf("%s: %v", md.name, err)
		}
		if res.Completed != nJobs {
			t.Fatalf("%s: completed %d of %d", md.name, res.Completed, nJobs)
		}
		keys := make([]jobKey, nJobs)
		for i := range res.Jobs {
			keys[i] = keyOf(res.Jobs[i])
		}
		if refVecs == nil {
			refVecs, refKeys = vecs, keys
			continue
		}
		for i := 0; i < nJobs; i++ {
			if keys[i] != refKeys[i] {
				t.Errorf("%s: job %d result fields diverged: %+v vs %+v",
					md.name, i, keys[i], refKeys[i])
			}
			if len(vecs[i]) != len(refVecs[i]) {
				t.Fatalf("%s: job %d amplitude count %d vs %d",
					md.name, i, len(vecs[i]), len(refVecs[i]))
			}
			for a := range vecs[i] {
				if vecs[i][a] != refVecs[i][a] { // bit-exact, no tolerance
					t.Fatalf("%s: job %d amplitude %d differs: %v vs %v",
						md.name, i, a, vecs[i][a], refVecs[i][a])
				}
			}
		}
	}
}

// batchRecorder tallies Observer events across workers.
type batchRecorder struct {
	mu      sync.Mutex
	starts  int
	dones   int
	workers map[int]WorkerStats
}

func (r *batchRecorder) OnJobStart(worker, index int, name string) {
	r.mu.Lock()
	r.starts++
	r.mu.Unlock()
}

func (r *batchRecorder) OnJobDone(worker int, jr JobResult) {
	r.mu.Lock()
	r.dones++
	r.mu.Unlock()
}

func (r *batchRecorder) OnWorkerDone(worker int, ws WorkerStats) {
	r.mu.Lock()
	if r.workers == nil {
		r.workers = make(map[int]WorkerStats)
	}
	r.workers[worker] = ws
	r.mu.Unlock()
}

func TestBatchObserverAndPerWorkerStats(t *testing.T) {
	rec := &batchRecorder{}
	res, err := Run(context.Background(), approxJobs(10), NewOptions(
		WithWorkers(2), WithBaseSeed(7), WithObserver(rec),
	))
	if err != nil {
		t.Fatal(err)
	}
	if rec.starts != 10 || rec.dones != 10 {
		t.Errorf("observer saw %d starts / %d dones, want 10/10", rec.starts, rec.dones)
	}
	if len(rec.workers) != 2 {
		t.Fatalf("OnWorkerDone fired for %d workers, want 2", len(rec.workers))
	}
	if len(res.PerWorker) != 2 {
		t.Fatalf("PerWorker has %d entries, want 2", len(res.PerWorker))
	}
	jobs, busy := 0, time.Duration(0)
	for w, ws := range res.PerWorker {
		if ws != rec.workers[w] {
			t.Errorf("worker %d: result stats %+v != observer stats %+v", w, ws, rec.workers[w])
		}
		if ws.Jobs > 0 && ws.Busy <= 0 {
			t.Errorf("worker %d ran %d jobs but reports no busy time: %+v", w, ws.Jobs, ws)
		}
		jobs += ws.Jobs
		busy += ws.Busy
	}
	if jobs != 10 {
		t.Errorf("per-worker jobs sum to %d, want 10", jobs)
	}
	if busy != res.CPUTime {
		t.Errorf("per-worker busy sums to %v, CPUTime is %v", busy, res.CPUTime)
	}
}

func TestNewOptionsFoldsBatchOptions(t *testing.T) {
	o := NewOptions(
		WithWorkers(3),
		WithBaseSeed(11),
		WithJobTimeout(time.Second),
	)
	if o.Workers != 3 || o.BaseSeed != 11 || o.JobTimeout != time.Second {
		t.Errorf("options not applied: %+v", o)
	}
}

// TestTypedSentinels pins the errors.Is contract of the pool's typed errors,
// including the default cancel cause.
func TestTypedSentinels(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	slow := Job{Name: "slow", Circuit: gen.RandomCliffordT(14, 100000, 1)}
	h1, err := p.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	for !h1.Started() {
		time.Sleep(time.Millisecond)
	}
	h2, err := p.Submit(poolJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(poolJob(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err %v, want ErrQueueFull", err)
	}

	// nil cancel cause defaults to ErrCanceled and counts as canceled.
	h2.Cancel(nil)
	h1.Cancel(nil)
	jr, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(jr.Err, ErrCanceled) {
		t.Errorf("queued job cancel cause = %v, want ErrCanceled", jr.Err)
	}
	if !jr.Canceled() {
		t.Error("ErrCanceled outcome not classified as canceled")
	}
	if jr, _ := h1.Wait(context.Background()); !jr.Canceled() {
		t.Errorf("running job cancel outcome %v not classified as canceled", jr.Err)
	}

	p.Close()
	if _, err := p.Submit(poolJob(4)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after close: err %v, want ErrShutdown", err)
	}
}

func TestPoolStatePerWorker(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2})
	defer p.Close()
	handles := make([]*Handle, 6)
	for i := range handles {
		h, err := p.Submit(poolJob(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := p.State()
	if st.Uptime <= 0 {
		t.Error("pool uptime missing")
	}
	if len(st.PerWorker) != 2 {
		t.Fatalf("PerWorker has %d entries, want 2", len(st.PerWorker))
	}
	jobs := 0
	for w, ws := range st.PerWorker {
		jobs += ws.Jobs
		if ws.Jobs > 0 {
			if ws.Busy <= 0 {
				t.Errorf("worker %d ran %d jobs with no busy time", w, ws.Jobs)
			}
			if ws.Utilization <= 0 || ws.Utilization > 1 {
				t.Errorf("worker %d utilization %v outside (0, 1]", w, ws.Utilization)
			}
		}
	}
	if jobs != len(handles) {
		t.Errorf("per-worker jobs sum to %d, want %d", jobs, len(handles))
	}
}

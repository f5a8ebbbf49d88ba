package batch

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkBatchRun measures the fan-out speedup of the worker pool on a
// fleet of independent approximate simulations (the Table I / sweep
// workload shape). On a multi-core machine ns/op drops as workers rise
// while cpu-s/op (process CPU time, user plus system, per batch) stays
// flat; on a single core the pool degrades gracefully to serial throughput.
func BenchmarkBatchRun(b *testing.B) {
	mkJobs := func() []Job {
		jobs := make([]Job, 16)
		for i := range jobs {
			jobs[i] = Job{
				Name:    fmt.Sprintf("rct_seed%d", i),
				Circuit: gen.RandomCliffordT(10, 220, int64(i)),
				NewStrategy: func() core.Strategy {
					return &core.MemoryDriven{Threshold: 64, RoundFidelity: 0.97, Growth: 1.1}
				},
			}
		}
		return jobs
	}
	// Jobs are built once per configuration, outside the timed region: the
	// benchmark measures the engine, not circuit construction.
	runBatch := func(b *testing.B, opts Options) {
		jobs := mkJobs()
		b.ResetTimer()
		cpu0 := processCPU(b)
		for i := 0; i < b.N; i++ {
			res, err := Run(context.Background(), jobs, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed != 16 {
				b.Fatalf("completed %d of 16", res.Completed)
			}
		}
		b.ReportMetric((processCPU(b)-cpu0).Seconds()/float64(b.N), "cpu-s/op")
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			runBatch(b, Options{Workers: workers})
		})
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

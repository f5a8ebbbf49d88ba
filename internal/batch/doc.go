// Package batch fans independent simulation jobs out across a pool of
// worker goroutines. Each job runs on its own sim.Simulator — DD managers
// are not goroutine-safe, so a manager is never shared between jobs.
//
// Two execution shapes share one Job type and one determinism contract:
//
//   - Run executes a closed batch: all jobs known up front, dispatched in
//     index order with results reported in index order. This drives the
//     Table I halves and the hyper-parameter sweeps in internal/benchtab.
//   - Pool accepts jobs one at a time and hands back a Handle per job
//     (Done/Result/Wait/Cancel), so long-lived callers — the HTTP
//     simulation service in internal/serve — can submit, poll, and cancel
//     against a fixed worker pool with a bounded queue.
//
// The engine guarantees determinism: a job's outcome depends only on its
// circuit, its options, and the seed derived from the base seed and the
// job (or submission) index — never on the worker it lands on or the
// worker count. Every job runs on a fresh manager that it owns, so node
// identities, value-table contents, and therefore every reported metric
// are bit-identical between a serial (one-worker) and a parallel run; only
// wall-clock timing fields differ. A job's Result stays valid after the job
// ends. A panic during a job's run fails that job alone (ErrJobPanicked).
//
// Cancellation is cooperative and two-level: the batch context (or a
// Handle's Cancel) stops dispatch of not-yet-started jobs and aborts
// in-flight simulations between gates (via sim.Options.Context), and
// per-job deadlines (Job.Timeout or the batch/pool JobTimeout) bound each
// simulation individually, mirroring the paper's 3 h timeout column.
//
// The root package re-exports the closed-batch entry point as
// repro.BatchRun.
package batch

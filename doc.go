// Package repro is a Go reproduction of "As Accurate as Needed, as Efficient
// as Possible: Approximations in DD-based Quantum Circuit Simulation"
// (Hillmich, Kueng, Markov, Wille — DATE 2021, arXiv:2012.05615).
//
// It provides a complete decision-diagram quantum circuit simulator with the
// paper's two approximation strategies:
//
//   - memory-driven (reactive): approximate whenever the state DD exceeds a
//     node-count threshold, growing the threshold after each round;
//   - fidelity-driven (proactive): plan ⌊log_fround(f_final)⌋ rounds at
//     circuit block boundaries, guaranteeing a final-fidelity budget.
//
// The package re-exports the user-facing API of the internal packages; see
// README.md for a tour, docs/ARCHITECTURE.md for the architecture, and the
// experiments command (cmd/experiments) for the Table I reproduction.
//
// Quick start:
//
//	c := repro.NewCircuit(2, "bell")
//	c.H(1)
//	c.CX(1, 0)
//	s := repro.NewSimulator()
//	res, err := s.Run(c, repro.Options{})
//	// res.Final is the state DD; sample or inspect amplitudes via s.M.
//
// Batch simulation: the paper's tables and hyper-parameter sweeps are many
// independent runs, and BatchRun fans them out across a worker pool (a
// fresh DD manager per job) with deterministic per-job seeding, context
// cancellation, and per-job deadlines. Results are bit-identical for any
// worker count, timing fields aside:
//
//	res, err := repro.BatchRun(ctx, jobs,
//		repro.WithWorkers(4), repro.WithJobTimeout(time.Minute))
//
// The same engine backs Table1Suite.RunMemoryDriven / RunFidelityDriven and
// the benchtab sweep runner; the table1 and experiments commands expose it
// as -parallel N.
//
// Simulation as a service: NewServer (and the standalone simd command)
// wraps the batch engine in an asynchronous HTTP/JSON API — submit circuits
// (OpenQASM 2.0 or inline gate lists) with per-job approximation strategy,
// shots, seed, and deadline; poll status; fetch results; cancel. Identical
// submissions are deduplicated through a content-addressed LRU result cache
// keyed on the canonical circuit+options hash, with hit/miss counters on
// /v1/stats. See docs/API.md for the endpoint reference and
// docs/ARCHITECTURE.md for how the layers stack.
//
// Memory system: the DD substrate interns nodes in per-variable hashed
// unique tables with intrusive bucket chains, serves node allocations from
// pooled chunks with free-list recycling, and runs bounded power-of-two
// compute caches with overwrite-on-collision eviction and O(1)
// generation-bump invalidation. Cleanup is a mark-sweep collector over the
// pools, so long-running and batch workloads reuse node memory instead of
// re-allocating. See the "Architecture: DD memory system" section of
// README.md.
//
// Development gates: `make ci` runs gofmt -l cleanliness, go vet, the
// build, and the race-detector test suite — the same four checks the
// GitHub Actions workflow enforces on every push and pull request.
package repro

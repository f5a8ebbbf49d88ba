// Package serve turns the simulator into an asynchronous HTTP/JSON service:
// simulation-as-a-service on top of the internal/batch worker pool, so many
// callers can submit circuits — each with its own accuracy/cost trade-off —
// against one bounded set of simulation workers.
//
// The API (mounted by Server.Handler, served standalone by cmd/simd):
//
//	POST   /v1/jobs             submit a circuit (OpenQASM 2.0 source or an
//	                            inline gate list) with a per-job
//	                            approximation strategy — a builtin (exact,
//	                            memory, fidelity) or any name registered
//	                            via core.RegisterStrategy, parameterized by
//	                            flat fields or strategy_params JSON — plus
//	                            shots, seed, and timeout
//	GET    /v1/jobs             list submissions with their statuses
//	GET    /v1/jobs/{id}        poll one job (result attached when done)
//	GET    /v1/jobs/{id}/result fetch the raw result payload
//	GET    /v1/jobs/{id}/events stream the job's simulation events (SSE):
//	                            per-gate sizes, approximation rounds,
//	                            cleanups, then a terminal status frame
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/stats            cache, pool, and DD memory-system counters
//	GET    /healthz             liveness probe
//
// Results are content-addressed: each submission is hashed over the
// canonical circuit encoding (circuit.AppendCanonical) plus every
// result-relevant option, and finished payloads enter a bounded LRU cache.
// An identical submission — whether it arrives as the same QASM text, as
// equivalent inline gates, or from a different caller — is answered from
// the cache byte-for-byte, without occupying a worker. Seedless submissions
// derive their measurement seed from the content hash itself, so results
// are reproducible from the request alone, even after cache eviction.
//
// Job execution, cancellation, deadlines, and seeding all delegate to
// batch.Pool; response payloads are assembled in the job's Finalize hook on
// the worker goroutine, so sampling runs in parallel across workers. A job
// whose run panics (for example in a registered strategy) ends failed; the
// server keeps serving. Each job carries a bounded
// event ring (Config.EventBufferSize) fed by the simulation Observer on the
// worker — appends never block on consumers, slow or reconnecting SSE
// readers see an explicit dropped-count gap instead. The public client
// package wraps the whole API in typed calls, including the event stream.
// docs/API.md documents every endpoint with request/response examples.
package serve

// Command simd serves DD-based quantum circuit simulation over HTTP:
// asynchronous job submission (OpenQASM 2.0 or inline gate lists) with
// per-job approximation strategies, a bounded worker pool, and a
// content-addressed result cache that deduplicates identical submissions.
//
// Usage:
//
//	simd                          # listen on :8555, one worker per CPU
//	simd -addr 127.0.0.1:9000     # custom listen address
//	simd -workers 8 -queue 64     # pool sizing (queue full → HTTP 503)
//	simd -cache 4096              # result-cache entries (0 disables)
//	simd -timeout 5m              # default per-job simulation timeout
//	simd -max-qubits 32           # reject wider circuits (0 = unlimited)
//	simd -events 4096             # per-job event-stream buffer (SSE)
//	simd -grace 30s               # shutdown grace period for live jobs
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// queued and running jobs get the grace period to finish, then remaining
// jobs are canceled. See docs/API.md for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8555", "listen address")
	workers := flag.Int("workers", 0, "simulation workers (0 = one per CPU)")
	queue := flag.Int("queue", 0, "submission queue depth (0 = 4x workers)")
	cache := flag.Int("cache", 1024, "result-cache entries (0 disables caching)")
	timeout := flag.Duration("timeout", 0, "default per-job timeout (0 = none; jobs may override via timeout_ms)")
	maxQubits := flag.Int("max-qubits", 0, "reject circuits wider than this (0 = unlimited)")
	maxShots := flag.Int("max-shots", 0, "reject submissions requesting more samples (0 = unlimited)")
	maxJobs := flag.Int("max-jobs", 4096, "retained finished jobs before the oldest are evicted (0 = unlimited)")
	events := flag.Int("events", 1024, "per-job event buffer for GET /v1/jobs/{id}/events (oldest events evicted beyond this)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight jobs (0 = wait forever)")
	flag.Parse()

	cfg := serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheEntries:      *cache,
		DefaultJobTimeout: *timeout,
		MaxQubits:         *maxQubits,
		MaxShots:          *maxShots,
		MaxJobs:           *maxJobs,
		EventBufferSize:   *events,
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = -1 // flag's 0 means unlimited; Config treats 0 as "default"
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = -1 // Config treats 0 as "default"; the flag's 0 means off
	}

	resolvedWorkers := cfg.Workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	log.Printf("simd: listening on %s (workers=%d cache=%d timeout=%v)",
		*addr, resolvedWorkers, *cache, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve.Serve(ctx, *addr, cfg, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
	log.Printf("simd: shut down cleanly")
}

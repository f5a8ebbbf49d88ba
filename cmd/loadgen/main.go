// Command loadgen is the cluster latency harness: it boots a local simd
// cluster (simd-router semantics + K backends, all in-process on loopback),
// drives phase-timed open-loop load sweeps over qubit counts × strategies ×
// offered RPS under both routing modes, and writes the measured
// p50/p95/p99 latency, throughput, and cluster cache hit rates to
// BENCH_cluster.json (schema bench-cluster/v1), which `make bench-check`
// gates against the committed bench_cluster_baseline.json.
//
// Usage:
//
//	loadgen -out BENCH_cluster.json
//	loadgen -backends 3 -qubits 4,8 -strategies exact,auto -rps 60 -phase 3s
//
// See internal/loadgen for the harness and docs/ARCHITECTURE.md for the
// cluster tier it measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	out := flag.String("out", "BENCH_cluster.json", "report file to write")
	backends := flag.Int("backends", 2, "number of simd backends behind the router")
	workers := flag.Int("workers", 1, "worker-pool size per backend")
	qubits := flag.String("qubits", "4", "comma-separated GHZ circuit widths to sweep")
	strategies := flag.String("strategies", "exact", "comma-separated strategies to sweep")
	rps := flag.Float64("rps", 40, "offered submissions per second per phase")
	phase := flag.Duration("phase", 2*time.Second, "duration of one (route, qubits, strategy) phase")
	workingSet := flag.Int("working-set", 5, "distinct circuits cycled per phase (keep coprime with -backends)")
	routes := flag.String("routes", "hash,rr", "routing modes to compare")
	vnodes := flag.Int("vnodes", 64, "ring points per backend")
	flag.Parse()

	qs, err := splitInts(*qubits)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: -qubits:", err)
		os.Exit(2)
	}
	opts := loadgen.Options{
		Backends:   *backends,
		Workers:    *workers,
		Qubits:     qs,
		Strategies: splitList(*strategies),
		RPS:        *rps,
		Phase:      *phase,
		WorkingSet: *workingSet,
		Routes:     splitList(*routes),
		VNodes:     *vnodes,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Sweep(ctx, opts, func(line string) { fmt.Println(line) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Printf("loadgen: %d phases -> %s (hash hit %.0f%% vs rr %.0f%%, hash p99 %.1fms)\n",
		len(rep.Runs), *out, 100*rep.Aggregate.HashHitRate, 100*rep.Aggregate.RRHitRate, rep.Aggregate.HashP99MS)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

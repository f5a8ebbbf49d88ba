// Command perfbench is the repository's end-to-end benchmark. One workload
// runs per invocation:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It builds its inputs from the seed, sets up (input generation, cluster
// boot, dense references) several times and reports the median CPU time,
// runs the workload's fixed work repeatedly for the given seconds, checks
// every result against the dense reference simulator, and prints as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around its calls into each layer, writes them to
// .bench_build/perfbench/, and reports per-layer metrics instead. With
// --closed-loop (serve-mix only) it measures the mix's closed-loop capacity,
// the knee the serve-mix rates are set below.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"job_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"peak_dd_nodes", "count"},
	{"heap_mb", "MB"},
	{"fidelity_est", "1"},
	{"fidelity_true", "1"},
	{"ok_frac", "1"},
}

// capacityMetrics are what a closed-loop serve-mix run reports.
var capacityMetrics = []metricDef{
	{"capacity_rps", "1/s"},
	{"job_p50_ms", "ms"},
	{"batch.busy_frac", "1"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// reach (or does not expose to the benchmark) reads 0.
var perLayer = []metricDef{
	{"cnum.lookups", "count"},
	{"cnum.hit_ratio", "1"},
	{"cnum.peak_weights", "count"},
	{"cnum.weights_per_node", "ratio"},
	{"dd.gate_s", "s"},
	{"dd.gate_ns_q1", "ns"},
	{"dd.gate_ns_q4", "ns"},
	{"dd.gate_cost_growth", "ratio"},
	{"dd.cleanup_s", "s"},
	{"dd.cleanups", "count"},
	{"dd.mul_hit_ratio", "1"},
	{"dd.add_hit_ratio", "1"},
	{"dd.nodes_created", "count"},
	{"core.approx_s", "s"},
	{"core.rounds", "count"},
	{"core.nodes_removed", "count"},
	{"core.useful_ratio", "1"},
	{"sim.self_s", "s"},
	{"dense.sim_s", "s"},
	{"dense.dd_over_dense", "ratio"},
	{"batch.busy_frac", "1"},
	{"batch.queue_wait_s", "s"},
	{"batch.cpu_per_busy", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.cache_hit_rate", "1"},
	{"serve.rejected", "count"},
	{"serve.sim_ms_p50", "ms"},
	{"cluster.route_self_ms_p50", "ms"},
	{"cluster.forward_ms_p50", "ms"},
	{"cluster.hit_span_share", "1"},
	{"go.gc_cpu_s", "s"},
	{"driver.late_ms_p99", "ms"},
	{"driver.low_p50_ms", "ms"},
	{"driver.low_tail_ms", "ms"},
	{"driver.high_p50_ms", "ms"},
	{"driver.high_tail_ms", "ms"},
	{"driver.high_goodput_rps", "1/s"},
	{"run.wall_s", "s"},
	{"run.job_p50_ms", "ms"},
	{"run.goodput_rps", "1/s"},
	{"trace.overhead_frac", "1"},
	{"trace.spans", "count"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	closed   bool // serve-mix only: measure closed-loop capacity instead
}

// spanDir is where traced runs write their spans, relative to the checkout.
var spanDir = filepath.Join(".bench_build", "perfbench")

// report is what a workload hands back: operation counts, metric values by
// name, and notes printed (as "# " lines) before the result.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// check records one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"cliffordt-long": runCliffordT,
	"table1-approx":  runTable1,
	"serve-mix":      runServeMix,
}

// A run sets up at least setupMinReps times, and more while the set-ups so
// far took less than setupBudget in all (at most setupMaxReps): setup_s is
// the median, so a set-up of a few milliseconds is read from many samples.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupBudget  = time.Second
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: cliffordt-long, table1-approx or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.BoolVar(&cfg.closed, "closed-loop", false, "serve-mix only: measure the mix's closed-loop capacity (the knee) instead")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if cfg.closed {
		run, ok = smCapacity, cfg.workload == "serve-mix" && !cfg.trace
	}
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Printf("# env %s\n", envStamp())
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	defs := endToEnd
	switch {
	case cfg.closed:
		defs = capacityMetrics
	case cfg.trace:
		defs = perLayer
		// A traced run's own end-to-end figures, next to the untraced ones.
		for _, n := range []string{"wall_s", "job_p50_ms", "goodput_rps"} {
			rep.metrics["run."+n] = rep.metrics[n]
		}
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": rep.metrics[d.name], "unit": d.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// envStamp names the hardware and toolchain every result was measured on.
func envStamp() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func envHeader(cfg config) map[string]any {
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
}

// writeSpans stores a traced run's spans and reports where.
func writeSpans(cfg config, tr *Tracer, rep *report) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.WriteFile(path, envHeader(cfg)); err != nil {
		return err
	}
	rep.metrics["trace.spans"] = float64(len(tr.Spans()))
	rep.note("spans written to %s", path)
	return nil
}

// timeSetup runs setup repeatedly and returns the median process CPU time
// (user+system, getrusage) of one set-up; the last repetition's products
// are the ones the run uses. CPU time rather than wall time: on a shared
// VM, time spent waiting for a CPU moved the wall time of a sub-second
// set-up by more than the largest bound a metric may have.
func timeSetup(setup func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < setupMinReps || (len(ds) < setupMaxReps && time.Since(start) < setupBudget) {
		runtime.GC()
		cpu0 := cpuTime()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, (cpuTime() - cpu0).Seconds())
	}
	return median(ds), nil
}

// repeat runs pass until seconds have elapsed and at least atLeast passes
// have run, and returns how many passes ran.
func repeat(seconds float64, atLeast int, pass func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i < atLeast || time.Since(start).Seconds() < seconds; i++ {
		if err := pass(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// minPasses is the fewest passes a run makes: a traced run's pass 0 is its
// untraced comparison, so it needs a second, traced pass to report from.
func minPasses(cfg config) int {
	if cfg.trace {
		return 2
	}
	return 1
}

// layerNote summarises self time per span name for the notes.
func layerNote(spans []Span) string {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.4fs", n, self[n].Seconds()))
	}
	return "self time by span: " + strings.Join(parts, " ")
}

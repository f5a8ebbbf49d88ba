package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/client"
	"repro/internal/gen"
	"repro/internal/qasm"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n            int
		level, value float64
	}{
		{1000, 99, 990}, // rank 990 leaves exactly 10 beyond
		{999, 98, 980},  // p99 would leave 9
		{100, 90, 90},   // p95 leaves 5, p90 leaves 10
		{20, 50, 10.5},  // only the median has 10 beyond
		{19, 50, 10},    // nothing qualifies: the median
		{4, 50, 2.5},    // the median of an even count
	}
	for _, c := range cases {
		level, value := tail(seq(c.n))
		if level != c.level || value != c.value {
			t.Errorf("tail of 1..%d = p%g %g, want p%g %g", c.n, level, value, c.level, c.value)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	if got := percentile(seq(10), 50); got != 5 {
		t.Errorf("p50 of 1..10 = %g, want 5", got)
	}
	if got := percentile(seq(10), 100); got != 10 {
		t.Errorf("p100 of 1..10 = %g, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := selfByName(spans)["parent"]; got != 50 {
		t.Errorf("self time by name = %d, want 50", got)
	}
}

// TestSpansParentedAcrossRouterAndBackend submits one job through a traced
// cluster and checks the chain driver.job → cluster.route →
// cluster.forward → serve.handle for the submission, all under one job id.
func TestSpansParentedAcrossRouterAndBackend(t *testing.T) {
	tr := newTracer()
	cl, err := bootCluster(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	src, err := qasm.Export(gen.RandomCliffordT(4, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	cc := client.New(cl.routerURL(), client.WithHTTPClient(driverHTTPClient(2)))
	const job = 7
	got := smRun(cc, client.JobRequest{QASM: src, Shots: 8}, time.Now(), job, tr)
	if got.err != nil || got.status != client.StatusDone {
		t.Fatalf("job: status %q, err %v", got.status, got.err)
	}
	byID := make(map[int64]Span)
	var handle Span
	for _, s := range tr.Spans() {
		byID[s.ID] = s
		if s.Name == "serve.handle" && s.Kind == "submit" {
			handle = s
		}
	}
	chain := []string{"serve.handle", "cluster.forward", "cluster.route", "driver.job"}
	s := handle
	for i, name := range chain {
		if s.Name != name || s.Job != job {
			t.Fatalf("link %d: span %+v, want %s of job %d", i, s, name, job)
		}
		if i < len(chain)-1 {
			s = byID[s.Parent]
		}
	}
	if s.Parent != 0 {
		t.Errorf("driver.job has parent %d, want a root span", s.Parent)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program has %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bench.EndToEnd)
	compare("per_layer", perLayer, bench.PerLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, ra, err := smInputs(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := smInputs(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(ra) != len(rb) {
		t.Fatalf("schedules differ in size: %d/%d vs %d/%d", len(a), len(ra), len(b), len(rb))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := range ra {
		if ra[i].req.QASM != rb[i].req.QASM || string(ra[i].req.StrategyParams) != string(rb[i].req.StrategyParams) {
			t.Fatalf("request %d differs", i)
		}
	}
}

// TestTracedRunMakesATracedPass pins that a traced run whose untraced
// comparison pass alone uses up the time still makes one traced pass to
// report from (its per-pass figures divide by the traced pass count).
func TestTracedRunMakesATracedPass(t *testing.T) {
	for _, c := range []struct {
		trace bool
		want  int
	}{{false, 1}, {true, 2}} {
		var ran []int
		n, err := repeat(1e-9, minPasses(config{trace: c.trace}), func(i int) error {
			ran = append(ran, i)
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil || n != c.want || len(ran) != c.want {
			t.Errorf("trace=%v: %d passes (ran %v, err %v), want %d", c.trace, n, ran, err, c.want)
		}
	}
	m := make(map[string]float64)
	var totals simTotals
	totals.fill(m, 1, nil)
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v after one traced pass", k, v)
		}
	}
}

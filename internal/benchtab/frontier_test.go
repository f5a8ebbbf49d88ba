package benchtab

import (
	"context"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// TestSweepFrontierReplaceDominates runs the standard frontier workloads and
// checks the differential claim the bench-check gate pins: at every budget,
// the replace pass keeps fidelity at least as high as the delete pass while
// ending no larger.
func TestSweepFrontierReplaceDominates(t *testing.T) {
	circs, err := FrontierCircuits()
	if err != nil {
		t.Fatal(err)
	}
	points, err := SweepFrontier(context.Background(), circs, []int{16, 24, 32, 48}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("frontier sweep produced no points")
	}
	// Points come in delete/replace pairs at the same (circuit, budget).
	for i := 0; i+1 < len(points); i += 2 {
		del, rep := points[i], points[i+1]
		if del.Strategy != "delete" || rep.Strategy != "replace" ||
			del.Circuit != rep.Circuit || del.Budget != rep.Budget {
			t.Fatalf("rows %d,%d are not a delete/replace pair: %+v / %+v", i, i+1, del, rep)
		}
		if rep.Fidelity < del.Fidelity-1e-9 {
			t.Errorf("%s budget %d: replace fidelity %v below delete %v",
				rep.Circuit, rep.Budget, rep.Fidelity, del.Fidelity)
		}
		// Delete may overshoot far below the budget (one removal can free a
		// whole subtree); replace staying anywhere within the budget is a
		// win, not a loss. Only a replace result over budget AND over the
		// delete size is dominated.
		if rep.Size > rep.Budget && rep.Size > del.Size {
			t.Errorf("%s budget %d: replace size %d above budget and delete size %d",
				rep.Circuit, rep.Budget, rep.Size, del.Size)
		}
		if rep.Params == "" || !strings.Contains(rep.Params, "kinds=") {
			t.Errorf("replace row is not self-describing: %+v", rep)
		}
	}

	md := FormatFrontierMarkdown(points)
	if !strings.Contains(md, "| Params |") || !strings.Contains(md, "kinds=collapse,promote") {
		t.Fatalf("markdown table missing the params column:\n%s", md)
	}
	csv := FormatFrontierCSV(points)
	if !strings.Contains(csv, "circuit,strategy,params,") {
		t.Fatalf("csv missing the params column:\n%s", csv)
	}
}

// BenchmarkFrontierPairs emits the pairs-workload frontier as bench metrics
// for the CI perf gate: frontier_points counts the swept budgets,
// frontier_dominated counts those where replace kept fidelity >= delete
// without exceeding its size. bench-check requires dominated == points, so
// the differential claim of the replace strategy is pinned PR over PR.
func BenchmarkFrontierPairs(b *testing.B) {
	circs := []*circuit.Circuit{PairsCircuit(12)}
	budgets := []int{16, 24, 32, 48}
	var points []FrontierPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = SweepFrontier(context.Background(), circs, budgets, nil, RunOptions{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	dominated, total := 0, 0
	for i := 0; i+1 < len(points); i += 2 {
		del, rep := points[i], points[i+1]
		total++
		if rep.Fidelity >= del.Fidelity-1e-9 && (rep.Size <= rep.Budget || rep.Size <= del.Size) {
			dominated++
		}
	}
	b.ReportMetric(float64(total), "frontier_points")
	b.ReportMetric(float64(dominated), "frontier_dominated")
}

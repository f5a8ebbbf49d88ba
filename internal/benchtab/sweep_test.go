package benchtab

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/shor"
	"repro/internal/sim"
	"repro/internal/supremacy"
)

// thresholdCells is the E8 grid: the exact reference, then the
// memory-driven strategy at each threshold.
func thresholdCells(c *circuit.Circuit, thresholds []int, fround, growth float64) []Cell {
	cells := []Cell{{Name: "exact", Circuit: c, Strategy: "exact"}}
	for _, th := range thresholds {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("threshold=%d", th), Circuit: c, Strategy: "memory",
			Params: json.RawMessage(fmt.Sprintf(`{"threshold":%d,"round_fidelity":%g,"growth":%g}`, th, fround, growth)),
		})
	}
	return cells
}

// roundFidelityCells is the E9 grid: the exact reference, then the
// fidelity-driven strategy at each f_round, rounds at the IQFT boundaries.
func roundFidelityCells(t *testing.T, inst *shor.Instance, frounds []float64, ffinal float64) []Cell {
	t.Helper()
	c := inst.BuildCircuit()
	locs, err := json.Marshal(inst.IQFTBoundaries(c))
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{{Name: "exact", Circuit: c, Strategy: "exact"}}
	for _, fr := range frounds {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("fround=%g", fr), Circuit: c, Strategy: "fidelity",
			Params: json.RawMessage(fmt.Sprintf(`{"final_fidelity":%g,"round_fidelity":%g,"locations":%s}`, ffinal, fr, locs)),
		})
	}
	return cells
}

// orderingCells is the E10 grid: per circuit the identity order first (the
// baseline), then each named ordering with optional sifting.
func orderingCells(circs []*circuit.Circuit, orders []string, sift bool) []Cell {
	var cells []Cell
	for _, c := range circs {
		cells = append(cells, Cell{Name: order.Identity, Circuit: c, Strategy: "reorder",
			Params: json.RawMessage(`{"order":"identity"}`)})
		for _, o := range orders {
			cells = append(cells, Cell{Name: o, Circuit: c, Strategy: "reorder",
				Params: json.RawMessage(fmt.Sprintf(`{"order":%q,"sift":%t}`, o, sift))})
		}
	}
	return cells
}

func pairsCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, "pairs")
	for i := 0; i < n/2; i++ {
		c.H(i)
		c.CX(i, i+n/2)
	}
	return c
}

func TestSweepThreshold(t *testing.T) {
	cfg := supremacy.Config{Rows: 2, Cols: 4, Depth: 12, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	points, err := Sweep(context.Background(), thresholdCells(c, []int{32, 64, 128}, 0.975, 1.1), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	if points[0].Rounds != 0 || points[0].NodesSaved() != 0 {
		t.Errorf("exact reference row: %+v", points[0])
	}
	points = points[1:]
	// Higher thresholds trigger fewer (or equal) rounds and keep more
	// fidelity.
	for i := 1; i < len(points); i++ {
		if points[i].Rounds > points[i-1].Rounds {
			t.Errorf("rounds increased with threshold: %v then %v",
				points[i-1], points[i])
		}
		if points[i].FinalFid < points[i-1].FinalFid-1e-9 {
			t.Errorf("fidelity decreased with threshold: %v then %v",
				points[i-1].FinalFid, points[i].FinalFid)
		}
	}
	for _, p := range points {
		if p.BaseMaxDD == 0 || p.MaxDD == 0 {
			t.Errorf("missing sizes in %+v", p)
		}
	}
}

func TestSweepRoundFidelity(t *testing.T) {
	inst, err := shor.NewInstance(21, 2)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Sweep(context.Background(), roundFidelityCells(t, inst, []float64{0.71, 0.9, 0.95}, 0.5), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	points = points[1:]
	// MaxRounds grows with f_round: ⌊log_0.71(0.5)⌋=2, log_0.9=6, log_0.95=13.
	if points[0].Rounds > 2 || points[1].Rounds > 6 || points[2].Rounds > 13 {
		t.Errorf("round counts exceed budgets: %+v", points)
	}
	for _, p := range points {
		if p.FidBound < 0.5-1e-9 {
			t.Errorf("%s: bound %v below f_final", p.Name, p.FidBound)
		}
	}
}

func TestSweepOrderings(t *testing.T) {
	circs := []*circuit.Circuit{pairsCircuit(10), gen.QFT(6)}
	points, err := Sweep(context.Background(), orderingCells(circs, []string{order.Reversed, order.Scored}, false), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	// Row 0 of each circuit is the identity baseline: zero saved by
	// definition.
	for i := 0; i < len(points); i += 3 {
		if points[i].Name != order.Identity || points[i].NodesSaved() != 0 {
			t.Fatalf("baseline row %d = %+v", i, points[i])
		}
		for j := i; j < i+3; j++ {
			if points[j].BaseMaxDD != points[i].MaxDD {
				t.Fatalf("row %d baseline mismatch: %+v vs %+v", j, points[j], points[i])
			}
		}
	}
	// The pairs circuit must show a scored-order win.
	var scored *Point
	for i := range points {
		if points[i].Circuit == "pairs" && points[i].Name == order.Scored {
			scored = &points[i]
		}
	}
	if scored == nil || scored.NodesSaved() <= 0 {
		t.Fatalf("scored ordering saved nothing on pairs: %+v", scored)
	}
}

// TestSweepOrderingsParallelMatchesSerial: rows must be identical whether
// the sweep fans out or runs serially (the determinism bar every batch
// driver in this repo clears).
func TestSweepOrderingsParallelMatchesSerial(t *testing.T) {
	cells := orderingCells([]*circuit.Circuit{pairsCircuit(8), gen.QFT(5)}, []string{order.Scored}, true)
	serial, err := Sweep(context.Background(), cells, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(context.Background(), cells, RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		a, b := serial[i], par[i]
		a.Runtime, b.Runtime = 0, 0 // wall clock legitimately differs
		a.BaseTime, b.BaseTime = 0, 0
		if a != b {
			t.Fatalf("row %d differs: serial %+v, parallel %+v", i, serial[i], par[i])
		}
	}
}

// TestPointsRoundTripRegistry: a point's (Strategy, Params) is the whole
// configuration — rebuilding the strategy from it through the registry and
// simulating again reproduces the point.
func TestPointsRoundTripRegistry(t *testing.T) {
	sup, err := supremacy.Config{Rows: 2, Cols: 3, Depth: 10, Seed: 0}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := shor.NewInstance(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	cells := thresholdCells(sup, []int{16, 32}, 0.975, 1.1)
	cells = append(cells, roundFidelityCells(t, inst, []float64{0.9}, 0.5)...)
	cells = append(cells, orderingCells([]*circuit.Circuit{pairsCircuit(8)}, []string{order.Scored}, true)...)
	points, err := Sweep(context.Background(), cells, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		strat, err := core.NewStrategyByName(p.Strategy, json.RawMessage(p.Params))
		if err != nil {
			t.Fatalf("%s: (%s, %s): %v", p.Name, p.Strategy, p.Params, err)
		}
		res, err := sim.New().Run(cells[i].Circuit, sim.Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxDDSize != p.MaxDD || len(res.Rounds) != p.Rounds || res.EstimatedFidelity != p.FinalFid {
			t.Errorf("%s/%s: rerun (max %d, rounds %d, fid %v) != point %+v",
				p.Circuit, p.Name, res.MaxDDSize, len(res.Rounds), res.EstimatedFidelity, p)
		}
	}
}

func TestSweepFormatters(t *testing.T) {
	points := []Point{{
		Name: "threshold=64", Circuit: "qsup", Strategy: "memory",
		Params: `{"threshold":64,"round_fidelity":0.975,"growth":1.05}`,
		Rounds: 3, MaxDD: 100, FinalFid: 0.9,
		FidBound: 0.88, BaseMaxDD: 200,
	}}
	md := FormatSweepMarkdown(points)
	if !strings.Contains(md, "| Params |") || !strings.Contains(md, "| qsup | threshold=64 | `{\"threshold\":64,") || !strings.Contains(md, "| 3 |") {
		t.Errorf("markdown:\n%s", md)
	}
}

package benchtab

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/shor"
	"repro/internal/supremacy"
)

// stripPointTiming zeroes the wall-clock fields, the only ones that may
// legitimately differ between a serial and a parallel run.
func stripPointTiming(points []Point) []Point {
	out := append([]Point(nil), points...)
	for i := range out {
		out[i].Runtime = 0
		out[i].BaseTime = 0
	}
	return out
}

func stripRowTiming(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	for i := range out {
		out[i].ExactTime = 0
		out[i].ApproxTime = 0
	}
	return out
}

func TestSweepThresholdParallelMatchesSerial(t *testing.T) {
	cfg := supremacy.Config{Rows: 2, Cols: 4, Depth: 12, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	thresholds := []int{32, 64, 128}
	run := func(parallel int) []Point {
		t.Helper()
		points, err := Sweep(context.Background(), thresholdCells(c, thresholds, 0.975, 1.1),
			RunOptions{Parallel: parallel, BaseSeed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return stripPointTiming(points)
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("rows diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestSweepRoundFidelityParallelMatchesSerial(t *testing.T) {
	inst, err := shor.NewInstance(15, 7)
	if err != nil {
		t.Fatal(err)
	}
	frounds := []float64{0.71, 0.9, 0.99}
	cells := roundFidelityCells(t, inst, frounds, 0.5)
	run := func(parallel int) []Point {
		t.Helper()
		points, err := Sweep(context.Background(), cells,
			RunOptions{Parallel: parallel, BaseSeed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return stripPointTiming(points)
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("rows diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestTable1ParallelMatchesSerial(t *testing.T) {
	suite := tinySuite()
	run := func(parallel int) []Row {
		t.Helper()
		opts := RunOptions{Parallel: parallel, BaseSeed: 3}
		mem, err := suite.RunMemoryDriven(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fid, err := suite.RunFidelityDriven(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return stripRowTiming(append(mem, fid...))
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("rows diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// The TrueFidelity column must have been sampled, not left at the
	// -1 sentinel: the parallel SampleTrue phase re-runs inside the exact
	// managers just as the serial one does.
	for _, r := range parallel {
		if r.TrueFidelity < 0 {
			t.Errorf("%s fround=%g: TrueFidelity not sampled", r.Name, r.RoundFid)
		}
	}
}

func TestSweepProgressAndCancellation(t *testing.T) {
	cfg := supremacy.Config{Rows: 2, Cols: 3, Depth: 10, Seed: 0}
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	cells := thresholdCells(c, []int{16, 32}, 0.975, 1.1)
	_, err = Sweep(context.Background(), cells,
		RunOptions{Progress: func(done, total int) {
			calls++
			if total != 3 { // exact + two thresholds
				t.Errorf("progress total = %d, want 3", total)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("progress fired %d times, want 3", calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Sweep(ctx, cells, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep returned %v, want context.Canceled", err)
	}
}

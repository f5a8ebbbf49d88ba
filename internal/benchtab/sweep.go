package benchtab

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
)

// Cell is one strategy configuration on one circuit. The configuration is
// the registry pair (Strategy, Params) that core.NewStrategyByName builds —
// the same pair a serve submission carries as strategy/strategy_params and
// the atlas records — so every table row can be resubmitted verbatim.
type Cell struct {
	Name     string // labels the cell in tables and errors
	Circuit  *circuit.Circuit
	Strategy string
	Params   json.RawMessage
}

func (c Cell) newStrategy() (core.Strategy, error) {
	return core.NewStrategyByName(c.Strategy, c.Params)
}

// Point is the measured outcome of one cell of a sweep.
type Point struct {
	Name     string
	Circuit  string
	Strategy string
	Params   string // the cell's registry JSON, verbatim
	Rounds   int
	MaxDD    int
	FinalDD  int
	Runtime  time.Duration
	FinalFid float64 // tracked fidelity product
	FidBound float64
	// SiftPasses counts dynamic reordering passes (reorder with sift only).
	SiftPasses int
	// BaseMaxDD and BaseTime are the peak and runtime of the first cell on
	// the same circuit: the reference (exact, or the identity order) that a
	// sweep lists first.
	BaseMaxDD int
	BaseTime  time.Duration
}

// NodesSaved is BaseMaxDD − MaxDD (negative when the cell peaked higher
// than its reference).
func (p Point) NodesSaved() int { return p.BaseMaxDD - p.MaxDD }

// Sweep runs every cell on the batch engine and reports one point per cell,
// in cell order; a failed cell fails the sweep. Points are identical for
// every opts.Parallel, Runtime and BaseTime aside.
func Sweep(ctx context.Context, cells []Cell, opts RunOptions) ([]Point, error) {
	bres, err := run(ctx, cells, 0, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(cells))
	base := make(map[*circuit.Circuit]int)
	for i, jr := range bres.Jobs {
		if jr.Err != nil {
			return nil, fmt.Errorf("benchtab: %s: %w", jr.Name, jr.Err)
		}
		c, res := cells[i], jr.Result
		b, ok := base[c.Circuit]
		if !ok {
			b, base[c.Circuit] = i, i
		}
		out[i] = Point{
			Name:       c.Name,
			Circuit:    c.Circuit.Name,
			Strategy:   c.Strategy,
			Params:     string(c.Params),
			Rounds:     len(res.Rounds),
			MaxDD:      res.MaxDDSize,
			FinalDD:    res.FinalDDSize,
			Runtime:    res.Runtime,
			FinalFid:   res.EstimatedFidelity,
			FidBound:   res.FidelityBound,
			SiftPasses: res.SiftPasses,
		}
		out[i].BaseMaxDD, out[i].BaseTime = out[b].MaxDD, out[b].Runtime
	}
	return out, nil
}

// run is the package's one strategy-run loop: one batch job per cell, in
// cell order, each building its strategy from the cell's registry pair.
// Every pair is built once up front, so a bad configuration fails the call
// rather than a job. timeout bounds each job (0 = none).
func run(ctx context.Context, cells []Cell, timeout time.Duration, opts RunOptions) (*batch.Result, error) {
	jobs := make([]batch.Job, len(cells))
	for i, c := range cells {
		if _, err := c.newStrategy(); err != nil {
			return nil, fmt.Errorf("benchtab: %s: %w", c.Name, err)
		}
		jobs[i] = batch.Job{
			Name:    c.Name,
			Circuit: c.Circuit,
			Timeout: timeout,
			NewStrategy: func() core.Strategy {
				s, err := c.newStrategy()
				if err != nil { // checked above, and the registry is append-only
					panic(err)
				}
				return s
			},
		}
	}
	return batch.Run(ctx, jobs, opts.batchOptions())
}

// FormatSweepMarkdown renders sweep points as a markdown table.
func FormatSweepMarkdown(points []Point) string {
	var b strings.Builder
	b.WriteString("| Circuit | Config | Params | Rounds | Max DD | Final DD | Sifts | Saved | f_final | Bound | Base Max DD | Runtime | Base Time |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(&b, "| %s | %s | `%s` | %d | %d | %d | %d | %d | %.3f | %.3f | %d | %s | %s |\n",
			p.Circuit, p.Name, paramsOrDash(p.Params), p.Rounds, p.MaxDD, p.FinalDD, p.SiftPasses,
			p.NodesSaved(), p.FinalFid, p.FidBound, p.BaseMaxDD, fmtDur(p.Runtime), fmtDur(p.BaseTime))
	}
	return b.String()
}

func paramsOrDash(params string) string {
	if params == "" {
		return "-"
	}
	return params
}

package benchtab

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/supremacy"
)

// FrontierPoint is one (circuit, pass, budget) cell of a delete-vs-replace
// frontier sweep: the fidelity kept against the exact final state when the
// one-shot approximation pass trims it to the node budget.
type FrontierPoint struct {
	Circuit  string
	Strategy string // "delete" or "replace"
	Params   string // self-describing pass parameters for this row
	Budget   int
	Size     int     // node count after the pass
	Fidelity float64 // |⟨exact|approx⟩|²
	ExactDD  int     // node count of the exact final state
}

// SweepFrontier simulates each circuit exactly once on the batch engine and,
// in Job.Finalize (on the worker, so the passes run in parallel), applies the
// one-shot delete and replace passes to the final state at every node
// budget. The result is the fidelity/size frontier of the two approximation
// families at genuinely equal budgets — the delete-vs-replace comparison of
// arXiv 2507.04335 on this repo's workloads. Budgets larger than the exact
// final size are skipped (both passes are no-ops there).
func SweepFrontier(ctx context.Context, circs []*circuit.Circuit, budgets []int, kinds []core.SubstituteKind, opts RunOptions) ([]FrontierPoint, error) {
	if kinds == nil {
		kinds = core.DefaultSubstitutes()
	}
	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = string(k)
	}
	replParams := "kinds=" + strings.Join(kindNames, ",")

	perJob := make([][]FrontierPoint, len(circs))
	errs := make([]error, len(circs))
	jobs := make([]batch.Job, 0, len(circs))
	for i, c := range circs {
		i, c := i, c
		jobs = append(jobs, batch.Job{
			Name:    c.Name,
			Circuit: c,
			Finalize: func(r *batch.JobResult) {
				if r.Err != nil || r.Result == nil {
					return
				}
				m, e := r.Result.Manager, r.Result.Final
				exact := dd.CountVNodes(e)
				for _, budget := range budgets {
					if budget < 1 || budget >= exact {
						continue
					}
					nd, repD, err := core.ApproximateToSize(m, e, budget)
					if err != nil {
						errs[i] = fmt.Errorf("delete at budget %d: %w", budget, err)
						return
					}
					nr, repR, err := core.ApproximateToSizeReplace(m, e, budget, 0, kinds)
					if err != nil {
						errs[i] = fmt.Errorf("replace at budget %d: %w", budget, err)
						return
					}
					perJob[i] = append(perJob[i],
						FrontierPoint{Circuit: c.Name, Strategy: "delete", Params: fmt.Sprintf("max_nodes=%d", budget),
							Budget: budget, Size: repD.SizeAfter, Fidelity: m.Fidelity(e, nd), ExactDD: exact},
						FrontierPoint{Circuit: c.Name, Strategy: "replace", Params: fmt.Sprintf("max_nodes=%d %s", budget, replParams),
							Budget: budget, Size: repR.SizeAfter, Fidelity: m.Fidelity(e, nr), ExactDD: exact})
				}
			},
		})
	}
	bres, err := batch.Run(ctx, jobs, opts.batchOptions())
	if err != nil {
		return nil, err
	}
	var out []FrontierPoint
	for i, jr := range bres.Jobs {
		if jr.Err != nil {
			return nil, fmt.Errorf("benchtab: %s: %w", jr.Name, jr.Err)
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("benchtab: %s: %w", jr.Name, errs[i])
		}
		out = append(out, perJob[i]...)
	}
	return out, nil
}

// FrontierCircuits builds the standard frontier workload set: QFT, Grover,
// a small supremacy grid, and the entangled-pairs circuit whose identity
// order peaks exponentially.
func FrontierCircuits() ([]*circuit.Circuit, error) {
	sup, err := supremacy.Config{Rows: 3, Cols: 3, Depth: 10, Seed: 0}.Generate()
	if err != nil {
		return nil, err
	}
	return []*circuit.Circuit{
		gen.QFT(10),
		gen.Grover(8, 0b1011_0110, 2),
		sup,
		PairsCircuit(12),
	}, nil
}

// PairsCircuit is the entangled-pairs workload (H on the low half, CX to
// the partner in the high half) shared by the ordering and frontier sweeps.
func PairsCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, fmt.Sprintf("pairs_%d", n))
	for i := 0; i < n/2; i++ {
		c.Apply("h", nil, i)
		c.Apply("x", nil, i+n/2, dd.PosControl(i))
	}
	return c
}

// FormatFrontierMarkdown renders a frontier sweep as a markdown table.
func FormatFrontierMarkdown(points []FrontierPoint) string {
	var b strings.Builder
	b.WriteString("| Circuit | Strategy | Params | Budget | Nodes | Fidelity | Exact DD |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %d | %.4f | %d |\n",
			p.Circuit, p.Strategy, p.Params, p.Budget, p.Size, p.Fidelity, p.ExactDD)
	}
	return b.String()
}

// FormatFrontierCSV renders a frontier sweep as CSV.
func FormatFrontierCSV(points []FrontierPoint) string {
	var b strings.Builder
	b.WriteString("circuit,strategy,params,budget,nodes,fidelity,exact_dd\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%s,%s,%d,%d,%.6f,%d\n",
			p.Circuit, p.Strategy, p.Params, p.Budget, p.Size, p.Fidelity, p.ExactDD)
	}
	return b.String()
}

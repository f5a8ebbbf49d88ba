package benchtab

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/shor"
	"repro/internal/sim"
	"repro/internal/supremacy"
)

// Row is one line of Table I (either half).
type Row struct {
	Approach string // "memory-driven" or "fidelity-driven"
	Name     string // benchmark name, e.g. qsup_4x5_15_0 or shor_33_5
	Qubits   int

	// Exact (non-approximating) reference columns.
	ExactMaxDD   int
	ExactTime    time.Duration
	ExactTimeout bool

	// Proposed-approach columns.
	ApproxMaxDD  int
	Rounds       int
	RoundFid     float64 // f_round
	ApproxTime   time.Duration
	FinalFid     float64 // tracked final fidelity (product of rounds)
	FidBound     float64 // guaranteed product of round targets
	ApproxFailed string  // non-empty if the approximate run errored

	// Extra columns beyond the paper (available because both states fit in
	// one manager at reproduction scale): the measured true fidelity, -1
	// when the exact reference is unavailable.
	TrueFidelity float64
}

// SpeedUp returns exact time / approx time (0 when not comparable).
func (r Row) SpeedUp() float64 {
	if r.ExactTimeout || r.ApproxTime == 0 || r.ApproxFailed != "" {
		return 0
	}
	return float64(r.ExactTime) / float64(r.ApproxTime)
}

// SupremacyCase is one memory-driven benchmark: a circuit plus the
// threshold/growth hyper-parameters and the f_round sweep of Table I.
type SupremacyCase struct {
	Config    supremacy.Config
	Threshold int
	// Growth is the threshold multiplier after each round. The paper's text
	// doubles the threshold; the scaled-down presets use a gentler factor so
	// the round counts land in the paper's regime (tens of rounds) at
	// laptop-scale DD ceilings.
	Growth  float64
	Frounds []float64
}

// ShorCase is one fidelity-driven benchmark.
type ShorCase struct {
	N, A          uint64
	FinalFidelity float64
	RoundFidelity float64
}

// Suite is a full Table I configuration.
type Suite struct {
	Name       string
	Supremacy  []SupremacyCase
	Shor       []ShorCase
	Timeout    time.Duration // per-simulation timeout (paper: 3 h)
	SampleTrue bool          // measure true fidelity against the exact state
}

// RunOptions configures how a suite or sweep executes. The zero value runs
// serially.
type RunOptions struct {
	// Parallel is the batch worker count; values ≤ 1 run serially (use
	// Workers to map a "0 = all CPUs" flag value). Rows are identical for
	// every worker count (timing columns aside) because each job runs on
	// a fresh manager with a seed derived from BaseSeed and its index.
	Parallel int
	// BaseSeed derives per-job measurement seeds.
	BaseSeed int64
	// Progress, when non-nil, receives (done, total) after each finished
	// simulation job (exact references and approximate runs; the optional
	// true-fidelity re-runs are not counted).
	Progress func(done, total int)
}

// Workers maps a user-facing parallelism flag to a RunOptions.Parallel
// value: n ≤ 0 selects one worker per CPU, anything else is taken verbatim.
// The table1 and experiments commands share this for their -parallel flags.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func (o RunOptions) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

func (o RunOptions) batchOptions() batch.Options {
	bo := batch.Options{BaseSeed: o.BaseSeed, Workers: o.workers()}
	if o.Progress != nil {
		p := o.Progress
		bo.Progress = func(done, total int, _ batch.JobResult) { p(done, total) }
	}
	return bo
}

// tableRow is one Table I row before it runs: the row's label columns plus
// the indices of its exact reference and approximate cells.
type tableRow struct {
	row           Row
	exact, approx int
}

// RunMemoryDriven produces the memory-driven half of Table I on the batch
// engine: one job per exact reference and per (circuit, f_round)
// configuration.
func (s Suite) RunMemoryDriven(ctx context.Context, opts RunOptions) ([]Row, error) {
	var cells []Cell
	var rows []tableRow
	for _, cs := range s.Supremacy {
		circ, err := cs.Config.Generate()
		if err != nil {
			return nil, err
		}
		exact := len(cells)
		cells = append(cells, Cell{Name: cs.Config.Name() + "/exact", Circuit: circ, Strategy: "exact"})
		for _, fround := range cs.Frounds {
			params, err := json.Marshal(core.MemoryDrivenParams{
				Threshold: cs.Threshold, RoundFidelity: fround, Growth: cs.Growth,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, tableRow{
				row: Row{
					Approach: "memory-driven",
					Name:     cs.Config.Name(),
					Qubits:   cs.Config.Qubits(),
					RoundFid: fround,
				},
				exact:  exact,
				approx: len(cells),
			})
			cells = append(cells, Cell{
				Name:     fmt.Sprintf("%s/fround=%g", cs.Config.Name(), fround),
				Circuit:  circ,
				Strategy: "memory",
				Params:   params,
			})
		}
	}
	return s.runRows(ctx, opts, cells, rows)
}

// RunFidelityDriven produces the fidelity-driven half of Table I on the
// batch engine: one exact and one approximate job per Shor instance, the
// approximation rounds placed at the instance's IQFT boundaries.
func (s Suite) RunFidelityDriven(ctx context.Context, opts RunOptions) ([]Row, error) {
	var cells []Cell
	var rows []tableRow
	for _, cs := range s.Shor {
		inst, err := shor.NewInstance(cs.N, cs.A)
		if err != nil {
			return nil, err
		}
		circ := inst.BuildCircuit()
		params, err := json.Marshal(core.FidelityDrivenParams{
			FinalFidelity: cs.FinalFidelity,
			RoundFidelity: cs.RoundFidelity,
			Locations:     inst.IQFTBoundaries(circ),
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, tableRow{
			row: Row{
				Approach: "fidelity-driven",
				Name:     inst.Name(),
				Qubits:   inst.Qubits,
				RoundFid: cs.RoundFidelity,
			},
			exact:  len(cells),
			approx: len(cells) + 1,
		})
		cells = append(cells,
			Cell{Name: inst.Name() + "/exact", Circuit: circ, Strategy: "exact"},
			Cell{
				Name:     fmt.Sprintf("%s/fround=%g", inst.Name(), cs.RoundFidelity),
				Circuit:  circ,
				Strategy: "fidelity",
				Params:   params,
			},
		)
	}
	return s.runRows(ctx, opts, cells, rows)
}

// runRows runs a half's cells and fills its rows from the results. A failed
// exact reference marks its rows as timed out and a failed approximate run
// marks its row as failed; neither fails the table.
func (s Suite) runRows(ctx context.Context, opts RunOptions, cells []Cell, plan []tableRow) ([]Row, error) {
	bres, err := run(ctx, cells, s.Timeout, opts)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(plan))
	for i, p := range plan {
		rows[i] = p.row
		fillExact(&rows[i], bres.Jobs[p.exact])
		fillApprox(&rows[i], bres.Jobs[p.approx])
	}
	if s.SampleTrue {
		if err := s.sampleTrue(ctx, opts, bres.Jobs, cells, plan, rows); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// sampleTrue fills the TrueFidelity column: for each exact reference that
// succeeded, the approximate cells of its rows are re-run inside the exact
// run's manager, their strategies rebuilt from the cells' registry pairs
// (each exact job owns a dedicated manager, so references proceed in
// parallel; re-runs against one reference share its manager and run
// sequentially on one goroutine). A re-run that fails on its own merely
// leaves the -1 sentinel in place, but context cancellation is returned so
// callers never mistake an interrupted sampling phase for a finished one.
func (s Suite) sampleTrue(ctx context.Context, opts RunOptions, jobs []batch.JobResult, cells []Cell, plan []tableRow, rows []Row) error {
	byExact := make(map[int][]int) // exact cell → its rows, in row order
	var exacts []int
	for i, p := range plan {
		if _, ok := byExact[p.exact]; !ok {
			exacts = append(exacts, p.exact)
		}
		byExact[p.exact] = append(byExact[p.exact], i)
	}
	sem := make(chan struct{}, opts.workers())
	var wg sync.WaitGroup
	for _, e := range exacts {
		exact := jobs[e]
		if exact.Err != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			simr := &sim.Simulator{M: exact.Result.Manager}
			for _, i := range byExact[e] {
				if rows[i].ApproxFailed != "" {
					continue
				}
				c := cells[plan[i].approx]
				strat, err := c.newStrategy()
				if err != nil {
					continue
				}
				approx2, err := simr.Run(c.Circuit, sim.Options{
					Strategy: strat,
					Deadline: s.deadline(),
					Context:  ctx,
					// The exact final state must survive this run's node-pool
					// sweeps for the fidelity comparison below.
					KeepAlive: []dd.VEdge{exact.Result.Final},
				})
				if err == nil {
					rows[i].TrueFidelity = simr.M.Fidelity(exact.Result.Final, approx2.Final)
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

func (s Suite) deadline() time.Time {
	if s.Timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.Timeout)
}

func fillExact(row *Row, jr batch.JobResult) {
	if jr.Err != nil {
		row.ExactTimeout = true
		return
	}
	row.ExactMaxDD = jr.Result.MaxDDSize
	row.ExactTime = jr.Result.Runtime
}

func fillApprox(row *Row, jr batch.JobResult) {
	if jr.Err != nil {
		row.ApproxFailed = jr.Err.Error()
		return
	}
	approx := jr.Result
	row.ApproxMaxDD = approx.MaxDDSize
	row.Rounds = len(approx.Rounds)
	row.ApproxTime = approx.Runtime
	row.FinalFid = approx.EstimatedFidelity
	row.FidBound = approx.FidelityBound
	row.TrueFidelity = -1
}

// Validate sanity-checks a suite configuration.
func (s Suite) Validate() error {
	for _, cs := range s.Supremacy {
		if cs.Threshold <= 0 {
			return fmt.Errorf("benchtab: %s: threshold %d", cs.Config.Name(), cs.Threshold)
		}
		if len(cs.Frounds) == 0 {
			return fmt.Errorf("benchtab: %s: no f_round values", cs.Config.Name())
		}
	}
	for _, cs := range s.Shor {
		if cs.FinalFidelity <= 0 || cs.FinalFidelity >= 1 {
			return fmt.Errorf("benchtab: shor_%d_%d: final fidelity %v", cs.N, cs.A, cs.FinalFidelity)
		}
	}
	return nil
}

package benchtab

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/supremacy"
)

// AtlasFidelityFloor is the minimum tracked fidelity a configuration must
// keep to be eligible as a class winner.
const AtlasFidelityFloor = 0.90

// AtlasWorkload is one workload class of the approximability atlas: a
// class key (matching gen.Classify) plus its seeded representative circuit
// at smoke scale.
type AtlasWorkload struct {
	Class   string
	Circuit *circuit.Circuit
}

// AtlasWorkloads returns the seeded representative circuit per workload
// class. Every parameter is pinned so the sweep — and therefore the
// committed docs/ATLAS.md — is a pure function of the code.
func AtlasWorkloads() ([]AtlasWorkload, error) {
	sup, err := supremacy.Config{Rows: 3, Cols: 3, Depth: 10, Seed: 0}.Generate()
	if err != nil {
		return nil, err
	}
	return []AtlasWorkload{
		{gen.ClassQFT, gen.QFT(10)},
		{gen.ClassGrover, gen.Grover(8, 0b1011_0110, 2)},
		{gen.ClassSupremacy, sup},
		{gen.ClassPairs, PairsCircuit(12)},
		{gen.ClassQAOA, gen.QAOAMaxCut(10, 2, 1)},
		{gen.ClassVQE, gen.VQEAnsatz(10, 3, gen.VQELinear, 1)},
		{gen.ClassCliffordT, gen.CliffordT(10, 220, 44, 1)},
	}, nil
}

// AtlasCell is one strategy × ordering × budget configuration of one
// workload class. RegistryStrategy/RegistryParams are exactly what
// core.NewStrategyByName ran, so a serve submission with those fields
// reproduces the cell bit for bit.
type AtlasCell struct {
	Class   string `json:"class"`
	Circuit string `json:"circuit"`

	Strategy string `json:"strategy"` // base strategy: exact/memory/fidelity/replace
	Order    string `json:"order"`    // identity/reversed/scored

	RegistryStrategy string `json:"registry_strategy"`
	RegistryParams   string `json:"registry_params,omitempty"`

	MaxDD    int     `json:"max_dd"`
	FinalDD  int     `json:"final_dd"`
	Rounds   int     `json:"rounds"`
	Fidelity float64 `json:"fidelity"`
	ExactMax int     `json:"exact_max_dd"`

	// Runtime is informational only: it is emitted to BENCH_atlas.json but
	// excluded from the gated docs/ATLAS.md so the committed table stays
	// deterministic.
	Runtime time.Duration `json:"runtime_ns"`
}

// label renders the cell's configuration compactly for tables.
func (c AtlasCell) label() string {
	if c.RegistryParams == "" {
		return c.RegistryStrategy
	}
	return c.RegistryStrategy + " " + c.RegistryParams
}

// AtlasRow is one class of the atlas: the exact reference, the winning
// configuration, and how much of the grid it Pareto-dominates.
type AtlasRow struct {
	Class    string `json:"class"`
	Circuit  string `json:"circuit"`
	Qubits   int    `json:"qubits"`
	Gates    int    `json:"gates"`
	ExactMax int    `json:"exact_max_dd"`

	Winner AtlasCell `json:"winner"`
	// Cells is the grid size behind the winner; Dominated counts the cells
	// the winner Pareto-dominates on (fidelity, peak nodes).
	Cells     int `json:"cells"`
	Dominated int `json:"dominated"`
}

// Atlas is a full approximability-atlas sweep result.
type Atlas struct {
	Rows  []AtlasRow  `json:"rows"`
	Cells []AtlasCell `json:"cells"`
}

// atlasConfig is one grid configuration before it runs.
type atlasConfig struct {
	strategy, order  string // base strategy and ordering
	registry, params string // what core.NewStrategyByName receives
}

// wrapOrder lifts a base (strategy, params) pair into the named ordering:
// identity runs the strategy directly, anything else goes through the
// "reorder" wrapper with the base as inner strategy.
func wrapOrder(strategy, params, ord string) atlasConfig {
	cfg := atlasConfig{strategy: strategy, order: ord, registry: strategy, params: params}
	if ord == order.Identity {
		return cfg
	}
	cfg.registry = "reorder"
	switch {
	case strategy == "exact":
		cfg.params = fmt.Sprintf(`{"order":%q}`, ord)
	default:
		cfg.params = fmt.Sprintf(`{"order":%q,"inner":%q,"inner_params":%s}`, ord, strategy, params)
	}
	return cfg
}

// atlasGrid builds the strategy × ordering × budget grid for one class
// whose exact peak is exactMax. Budgets derive from the peak so every class
// is probed at comparable compression pressure.
func atlasGrid(exactMax int) []atlasConfig {
	orders := []string{order.Identity, order.Reversed, order.Scored}
	quarter := exactMax / 4
	if quarter < 16 {
		quarter = 16
	}
	half := exactMax / 2
	if half < 32 {
		half = 32
	}
	var grid []atlasConfig
	for _, ord := range orders {
		grid = append(grid, wrapOrder("exact", "", ord))
	}
	for _, th := range []int{quarter, half} {
		p := fmt.Sprintf(`{"threshold":%d,"round_fidelity":0.98,"growth":2}`, th)
		for _, ord := range orders {
			grid = append(grid, wrapOrder("memory", p, ord))
		}
	}
	for _, ff := range []string{"0.90", "0.98"} {
		p := fmt.Sprintf(`{"final_fidelity":%s,"round_fidelity":0.995}`, ff)
		for _, ord := range orders {
			grid = append(grid, wrapOrder("fidelity", p, ord))
		}
	}
	for _, nb := range []int{quarter, half} {
		p := fmt.Sprintf(`{"node_budget":%d,"fidelity_floor":0.85}`, nb)
		for _, ord := range orders {
			grid = append(grid, wrapOrder("replace", p, ord))
		}
	}
	return grid
}

// SweepAtlas runs the full strategy × ordering × budget grid over every
// workload class on the batch engine and picks the per-class winner: the
// eligible cell (fidelity ≥ AtlasFidelityFloor) with the smallest peak DD,
// ties broken by higher fidelity, fewer rounds, then grid order. When no
// cell clears the floor the highest-fidelity cell wins. Results are
// bit-identical for every opts.Parallel value.
func SweepAtlas(ctx context.Context, opts RunOptions) (*Atlas, error) {
	workloads, err := AtlasWorkloads()
	if err != nil {
		return nil, err
	}
	// Phase 1: exact references, to size the per-class budget grids.
	exactCells := make([]Cell, len(workloads))
	for i, w := range workloads {
		exactCells[i] = Cell{Name: "exact/" + w.Class, Circuit: w.Circuit, Strategy: "exact"}
	}
	exact, err := Sweep(ctx, exactCells, opts)
	if err != nil {
		return nil, err
	}

	// Phase 2: the full grid, one cell per configuration.
	var cells []Cell
	var configs []atlasConfig
	var classIdx []int
	for i, w := range workloads {
		for _, cfg := range atlasGrid(exact[i].MaxDD) {
			cells = append(cells, Cell{
				Name:     fmt.Sprintf("%s/%s/%s", w.Class, cfg.strategy, cfg.order),
				Circuit:  w.Circuit,
				Strategy: cfg.registry,
				Params:   json.RawMessage(cfg.params),
			})
			configs = append(configs, cfg)
			classIdx = append(classIdx, i)
		}
	}
	points, err := Sweep(ctx, cells, opts)
	if err != nil {
		return nil, err
	}

	atlas := &Atlas{}
	cellsByClass := make([][]AtlasCell, len(workloads))
	for j, p := range points {
		i := classIdx[j]
		cell := AtlasCell{
			Class:            workloads[i].Class,
			Circuit:          p.Circuit,
			Strategy:         configs[j].strategy,
			Order:            configs[j].order,
			RegistryStrategy: p.Strategy,
			RegistryParams:   p.Params,
			MaxDD:            p.MaxDD,
			FinalDD:          p.FinalDD,
			Rounds:           p.Rounds,
			Fidelity:         p.FinalFid,
			ExactMax:         exact[i].MaxDD,
			Runtime:          p.Runtime,
		}
		cellsByClass[i] = append(cellsByClass[i], cell)
		atlas.Cells = append(atlas.Cells, cell)
	}
	for i, w := range workloads {
		cells := cellsByClass[i]
		win := pickAtlasWinner(cells)
		dominated := 0
		for _, c := range cells {
			if c == win {
				continue
			}
			if win.MaxDD <= c.MaxDD && win.Fidelity >= c.Fidelity &&
				(win.MaxDD < c.MaxDD || win.Fidelity > c.Fidelity) {
				dominated++
			}
		}
		atlas.Rows = append(atlas.Rows, AtlasRow{
			Class:     w.Class,
			Circuit:   w.Circuit.Name,
			Qubits:    w.Circuit.NumQubits,
			Gates:     w.Circuit.Len(),
			ExactMax:  exact[i].MaxDD,
			Winner:    win,
			Cells:     len(cells),
			Dominated: dominated,
		})
	}
	return atlas, nil
}

func pickAtlasWinner(cells []AtlasCell) AtlasCell {
	better := func(a, b AtlasCell) bool { // does a beat b?
		ae, be := a.Fidelity >= AtlasFidelityFloor, b.Fidelity >= AtlasFidelityFloor
		if ae != be {
			return ae
		}
		if !ae { // neither eligible: chase fidelity first
			if a.Fidelity != b.Fidelity {
				return a.Fidelity > b.Fidelity
			}
			return a.MaxDD < b.MaxDD
		}
		if a.MaxDD != b.MaxDD {
			return a.MaxDD < b.MaxDD
		}
		if a.Fidelity != b.Fidelity {
			return a.Fidelity > b.Fidelity
		}
		return a.Rounds < b.Rounds
	}
	win := cells[0]
	for _, c := range cells[1:] {
		if better(c, win) {
			win = c
		}
	}
	return win
}

// FormatAtlasMarkdown renders the per-class winner table plus the full
// grid. Only deterministic columns appear (no runtimes): the output is
// byte-stable across runs and machines, which is what lets atlas-check
// gate the committed docs/ATLAS.md against drift.
func FormatAtlasMarkdown(a *Atlas) string {
	var b strings.Builder
	b.WriteString("| Class | Circuit | Qubits | Gates | Exact peak | Winner | Order | Peak DD | Fidelity | Rounds | Dominates |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | `%s` | %s | %d | %.4f | %d | %d/%d |\n",
			r.Class, r.Circuit, r.Qubits, r.Gates, r.ExactMax,
			r.Winner.label(), r.Winner.Order, r.Winner.MaxDD, r.Winner.Fidelity,
			r.Winner.Rounds, r.Dominated, r.Cells-1)
	}
	return b.String()
}

// FormatAtlasGridMarkdown renders every cell of the sweep (again without
// runtimes), grouped by class in sweep order.
func FormatAtlasGridMarkdown(a *Atlas) string {
	var b strings.Builder
	b.WriteString("| Class | Strategy | Order | Config | Peak DD | Final DD | Fidelity | Rounds | Exact peak |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, c := range a.Cells {
		fmt.Fprintf(&b, "| %s | %s | %s | `%s` | %d | %d | %.4f | %d | %d |\n",
			c.Class, c.Strategy, c.Order, paramsOrDash(c.RegistryParams), c.MaxDD, c.FinalDD, c.Fidelity, c.Rounds, c.ExactMax)
	}
	return b.String()
}

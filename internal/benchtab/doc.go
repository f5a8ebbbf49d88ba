// Package benchtab regenerates Table I of the paper: the memory-driven
// validation on quantum-supremacy circuits and the fidelity-driven
// validation on Shor's algorithm, each against the exact (non-approximating)
// simulation as reference.
//
// Presets scale the instances: the `paper` preset reproduces the original
// workloads verbatim (hours of runtime on a laptop, as in the paper's
// server experiments); `small` and `medium` keep the generators and
// hyper-parameter structure but shrink qubit counts so the suite runs in
// seconds to minutes. NewSuite documents the substitution.
//
// Every strategy run goes through one runner over Cells: a circuit plus the
// registry pair (strategy name, JSON params) that core.NewStrategyByName
// builds, which is also what a serve submission and the atlas carry. Sweep
// runs a list of cells and reports one Point per cell (the hyper-parameter
// sweeps E8/E9 and the ordering sweep E10 are cell lists); both Table I
// halves and both atlas phases run on the same runner. SweepFrontier alone
// keeps its own loop: its cells are one-shot passes over an exact final
// state, not strategy runs.
//
// Each cell is an independent job on the internal/batch worker pool, so
// RunOptions.Parallel > 1 fans a table out across CPUs while producing rows
// identical to the serial path (timing columns aside); RunOptions{} runs
// serially. RunOptions.BaseSeed pins every measurement seed, so published
// rows are reproducible from the (preset, workers, seed) triple the
// table1 and experiments commands print in their headers.
package benchtab

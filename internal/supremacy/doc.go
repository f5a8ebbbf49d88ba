// Package supremacy generates random quantum-supremacy circuits in the style
// of Boixo et al., "Characterizing quantum supremacy in near-term devices"
// (Nature Physics 2018) — the paper's memory-driven benchmarks
// ("qsup_AxB_depth_seed", using conditional phase gates).
//
// The construction follows the published rules: qubits on an A×B grid,
// an initial layer of Hadamards, then per clock cycle one layer of CZ gates
// drawn from a repeating sequence of eight staggered bond patterns, with
// single-qubit gates from {T, √X, √Y} filling qubits that just left a CZ:
//
//   - a qubit receives a single-qubit gate in cycle k only if it was acted
//     on by a CZ in cycle k−1 and is not in a CZ in cycle k;
//   - the first such gate on a qubit is always T (delaying T gates lowers
//     circuit hardness);
//   - subsequent gates are chosen uniformly from {√X, √Y}, never repeating
//     the qubit's previous single-qubit gate.
//
// The exact eight bond patterns of the original paper are tied to their
// specific device figure; this generator uses staggered patterns with the
// same structure (four horizontal + four vertical phases, each bond covered
// once per eight cycles, disjoint bonds within a layer), which preserves the
// property the DATE'21 paper relies on: minimal redundancy, so the state DD
// grows toward the 2^n worst case (benchtab.NewSuite documents how its
// presets scale these grids down).
package supremacy

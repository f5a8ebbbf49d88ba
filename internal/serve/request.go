package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/atlas"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// Builtin strategy names accepted in JobRequest.Strategy. Any further name
// registered through core.RegisterStrategy is accepted as well — this is how
// user-defined strategies become reachable over HTTP. Every strategy takes
// its parameters through JobRequest.StrategyParams.
const (
	StrategyExact    = "exact"
	StrategyMemory   = "memory"
	StrategyFidelity = "fidelity"
	// StrategyReplace is node replacement (arXiv 2507.04335): low-
	// contribution nodes are swapped for cheaper substitutes instead of
	// zeroed. Parameters via StrategyParams (core.ReplaceDrivenParams),
	// e.g. {"node_budget":512,"fidelity_floor":0.9,"kinds":["collapse","promote"]}.
	StrategyReplace = "replace"
	// StrategyReorder wraps any other strategy with variable reordering; it
	// takes parameters only through StrategyParams (see order.Params), e.g.
	// {"order":"scored","sift":true,"inner":"memory","inner_params":{...}}.
	StrategyReorder = "reorder"
	// StrategyAuto classifies the submitted circuit by gate mix
	// (gen.Classify) and installs the committed approximability-atlas winner
	// for its workload class (internal/atlas, docs/ATLAS.md). It resolves
	// before hashing, so an auto submission shares its cache entry — and its
	// byte-identical payload — with an explicit submission of the winning
	// configuration; ResultPayload.ResolvedStrategy reports what was
	// installed. Auto takes no parameters and only runs noiseless
	// statevector jobs (the atlas is measured there).
	StrategyAuto = "auto"
)

// GateSpec is one gate of an inline circuit submission.
type GateSpec struct {
	// Name is a gate from the standard set the circuit IR accepts (h, x,
	// cx via controls, rz, u, ...), or "measure"/"reset".
	Name string `json:"name"`
	// Params are the gate's rotation angles, when it takes any.
	Params []float64 `json:"params,omitempty"`
	// Target is the target qubit (bit Target of the basis-state index).
	Target int `json:"target"`
	// Controls and NegControls list positive and negative control qubits.
	Controls    []int `json:"controls,omitempty"`
	NegControls []int `json:"neg_controls,omitempty"`
}

// JobRequest is the submission body accepted by POST /v1/jobs. Exactly one
// of QASM or (Qubits, Gates) describes the circuit.
type JobRequest struct {
	// Name labels the job in listings; it does not affect results or
	// caching.
	Name string `json:"name,omitempty"`

	// QASM is an OpenQASM 2.0 program (barriers become block boundaries).
	QASM string `json:"qasm,omitempty"`
	// Qubits and Gates describe an inline circuit.
	Qubits int        `json:"qubits,omitempty"`
	Gates  []GateSpec `json:"gates,omitempty"`
	// Blocks lists gate indices after which a block boundary sits (the
	// fidelity-driven strategy places approximation rounds at boundaries).
	Blocks []int `json:"blocks,omitempty"`

	// Strategy selects the approximation mode: "exact" (default),
	// "memory" (Section IV-B), "fidelity" (Section IV-C), or any name
	// registered through core.RegisterStrategy.
	Strategy string `json:"strategy,omitempty"`
	// StrategyParams carries the strategy's JSON parameters verbatim to
	// its registered factory, e.g. {"threshold":4096,"round_fidelity":0.99}
	// for "memory" (core.MemoryDrivenParams) or
	// {"final_fidelity":0.8,"round_fidelity":0.9} for "fidelity"
	// (core.FidelityDrivenParams). Together with Strategy it is the same
	// registry pair core.NewStrategyByName takes.
	StrategyParams json.RawMessage `json:"strategy_params,omitempty"`

	// Backend selects the state representation: "statevector" (the
	// default) or "density" (exact noisy simulation on a density matrix).
	// A submission that sets noise but leaves the backend empty runs on
	// the density backend; "statevector" with noise runs one seeded
	// quantum-trajectory sample instead.
	Backend string `json:"backend,omitempty"`
	// Noise names a built-in channel applied after every gate to each
	// touched qubit: depolarizing, amplitude_damping, dephasing, bit_flip,
	// or phase_flip. Empty means noiseless.
	Noise string `json:"noise,omitempty"`
	// NoiseParams parameterizes the channel: "p" (or "gamma", the
	// amplitude-damping spelling) is the channel strength in [0,1], "seed"
	// seeds trajectory branch sampling on the statevector backend.
	NoiseParams map[string]float64 `json:"noise_params,omitempty"`

	// InitialState selects the starting basis state |InitialState⟩.
	InitialState uint64 `json:"initial_state,omitempty"`
	// Shots draws that many samples from the final state (0 = none).
	Shots int `json:"shots,omitempty"`
	// Seed seeds mid-circuit measurements and sampling. 0 derives a stable
	// seed from the submission's content hash, so identical submissions
	// yield identical samples even across cache evictions.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS bounds the simulation in milliseconds; 0 uses the server
	// default. The timeout does not participate in the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// compiled is a validated submission ready for the pool.
type compiled struct {
	req     JobRequest
	circuit *circuit.Circuit
	hash    string // hex sha256 over circuit + result-relevant options
	seed    int64  // resolved measurement/sampling seed (never 0)
	timeout time.Duration

	// stratName and stratParams are the resolved registry name and JSON
	// parameters the job's per-run strategy instances are built from.
	stratName   string
	stratParams json.RawMessage

	// backend is the resolved simulation backend (never empty) and noise
	// the parsed channel model (nil when the submission is noiseless).
	backend sim.Backend
	noise   *sim.NoiseModel
}

// resolveCircuit builds the submission's circuit IR from whichever of the
// two circuit encodings (QASM, inline gates) the request carries.
func resolveCircuit(req JobRequest) (*circuit.Circuit, error) {
	switch {
	case req.QASM != "" && len(req.Gates) > 0:
		return nil, fmt.Errorf("submission carries both qasm and inline gates; pick one")
	case req.QASM != "":
		prog, err := qasm.Parse(req.QASM, req.Name)
		if err != nil {
			return nil, fmt.Errorf("qasm: %w", err)
		}
		return prog.Circuit, nil
	case len(req.Gates) > 0:
		return buildInline(req)
	default:
		return nil, fmt.Errorf("submission carries no circuit (set qasm or qubits+gates)")
	}
}

// CanonicalHash resolves a submission's content address: the hex sha256 over
// the canonical circuit encoding and every result-relevant option — the same
// key the in-server result cache stores under. It applies no server limits,
// so routing tiers (the cluster router, hash-affine clients) can compute the
// key for any well-formed submission without owning a Server; a request this
// function rejects would be rejected by every backend too.
func CanonicalHash(req JobRequest) (string, error) {
	circ, err := resolveCircuit(req)
	if err != nil {
		return "", err
	}
	req, err = resolveAuto(req, circ)
	if err != nil {
		return "", err
	}
	return contentHash(circ, normalizeForHash(req)), nil
}

// resolveAuto rewrites a strategy=auto submission into the committed atlas
// winner for the circuit's workload class. It runs right after circuit
// resolution in both compile and CanonicalHash — before strategy validation
// and hashing — so routing tiers and backends agree on the key, and an auto
// submission is indistinguishable (hash, cache entry, result payload) from
// explicitly submitting the winning configuration.
func resolveAuto(req JobRequest, circ *circuit.Circuit) (JobRequest, error) {
	if req.Strategy != StrategyAuto {
		return req, nil
	}
	if len(req.StrategyParams) > 0 {
		return req, fmt.Errorf("strategy %q picks its own parameters; strategy_params may not be set", StrategyAuto)
	}
	if req.Noise != "" || sim.Backend(req.Backend) == sim.BackendDensity {
		return req, fmt.Errorf("strategy %q resolves from the noiseless statevector atlas; noisy or density jobs must pick a strategy explicitly", StrategyAuto)
	}
	win := atlas.Resolve(gen.Classify(circ))
	req.Strategy = win.Strategy
	if win.Params != "" {
		req.StrategyParams = json.RawMessage(win.Params)
	}
	return req, nil
}

// compile validates the request against the server limits and resolves the
// circuit, strategy parameters, content hash, and seed.
func (s *Server) compile(req JobRequest) (*compiled, error) {
	circ, err := resolveCircuit(req)
	if err != nil {
		return nil, err
	}
	req, err = resolveAuto(req, circ)
	if err != nil {
		return nil, err
	}
	if max := s.cfg.MaxQubits; max > 0 && circ.NumQubits > max {
		return nil, fmt.Errorf("circuit has %d qubits, above the server limit of %d", circ.NumQubits, max)
	}
	if req.Shots < 0 {
		return nil, fmt.Errorf("shots %d must be ≥ 0", req.Shots)
	}
	if max := s.cfg.MaxShots; max > 0 && req.Shots > max {
		return nil, fmt.Errorf("shots %d above the server limit of %d", req.Shots, max)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d must be ≥ 0", req.TimeoutMS)
	}

	// Resolve the strategy through the core registry (builtins and
	// user-registered alike) and validate by building + Init'ing one
	// instance up front, so submissions fail with a 400 instead of a
	// failed job.
	name, params := req.Strategy, req.StrategyParams
	if name == "" {
		name = StrategyExact
	}
	st, err := core.NewStrategyByName(name, params)
	if err != nil {
		return nil, err
	}
	if err := st.Init(circ.Len(), circ.Blocks()); err != nil {
		return nil, err
	}

	backend, noise, err := resolveNoise(req)
	if err != nil {
		return nil, err
	}
	if backend == sim.BackendDensity {
		// The density backend evolves ρ exactly; approximation strategies
		// rewrite statevector DDs and cannot run on it. Reject here with a
		// 400 instead of a failed job.
		if _, exact := st.(core.Exact); !exact {
			return nil, fmt.Errorf("backend %q requires the exact strategy, got %q", backend, name)
		}
	}

	c := &compiled{req: req, circuit: circ, stratName: name, stratParams: params,
		backend: backend, noise: noise}
	c.hash = contentHash(circ, normalizeForHash(req))
	c.seed = req.Seed
	if c.seed == 0 {
		c.seed = seedFromHash(c.hash)
	}
	c.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	if c.timeout == 0 {
		c.timeout = s.cfg.DefaultJobTimeout
	}
	return c, nil
}

// resolveNoise validates the submission's backend and noise fields and
// resolves the effective backend: an empty backend means statevector for
// noiseless jobs and density for noisy ones (exact noisy results are what a
// noise-carrying submission is asking for; trajectory sampling is the
// explicit statevector+noise opt-in).
func resolveNoise(req JobRequest) (sim.Backend, *sim.NoiseModel, error) {
	var noise *sim.NoiseModel
	switch {
	case req.Noise != "":
		n, err := sim.ParseNoise(req.Noise, req.NoiseParams)
		if err != nil {
			return "", nil, err
		}
		noise = &n
	case len(req.NoiseParams) > 0:
		return "", nil, fmt.Errorf("noise_params given without noise")
	}
	backend := sim.Backend(req.Backend)
	switch backend {
	case "":
		backend = sim.BackendStatevector
		if noise != nil {
			backend = sim.BackendDensity
		}
	case sim.BackendStatevector, sim.BackendDensity:
	default:
		return "", nil, fmt.Errorf("unknown backend %q (have %v)", req.Backend, sim.Backends())
	}
	return backend, noise, nil
}

// newStrategy builds a fresh strategy instance for one run (strategies are
// stateful, so each run needs its own). compile already validated the
// (name, params) pair and the registry is append-only, so the error path is
// defensive: it surfaces as a failed job rather than a panic.
func (c *compiled) newStrategy() core.Strategy {
	st, err := core.NewStrategyByName(c.stratName, c.stratParams)
	if err != nil {
		return brokenStrategy{err}
	}
	return st
}

// brokenStrategy fails the run at Init with the construction error.
type brokenStrategy struct{ err error }

func (b brokenStrategy) Name() string          { return "broken" }
func (b brokenStrategy) Init(int, []int) error { return b.err }
func (b brokenStrategy) AfterGate(_ *dd.Manager, _, _ int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	return state, nil, nil
}

func buildInline(req JobRequest) (*circuit.Circuit, error) {
	if req.Qubits <= 0 {
		return nil, fmt.Errorf("inline circuit needs qubits ≥ 1, got %d", req.Qubits)
	}
	for i, b := range req.Blocks {
		if b < 0 || b >= len(req.Gates) {
			return nil, fmt.Errorf("block boundary %d outside gate range [0,%d)", b, len(req.Gates))
		}
		if i > 0 && b <= req.Blocks[i-1] {
			return nil, fmt.Errorf("block boundaries must be strictly increasing")
		}
	}
	c := circuit.New(req.Qubits, req.Name)
	next := 0
	for i, g := range req.Gates {
		if err := appendGate(c, g); err != nil {
			return nil, fmt.Errorf("gate %d: %w", i, err)
		}
		// EndBlock marks a boundary after the most recent gate, so replay
		// the requested boundaries in step with appending.
		if next < len(req.Blocks) && req.Blocks[next] == i {
			c.EndBlock()
			next++
		}
	}
	return c, nil
}

func appendGate(c *circuit.Circuit, g GateSpec) (err error) {
	// The IR panics on out-of-range qubits; surface that as a request error.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	switch g.Name {
	case "":
		return fmt.Errorf("missing gate name")
	case "measure":
		c.Measure(g.Target)
		return nil
	case "reset":
		c.Reset(g.Target)
		return nil
	}
	controls := make([]dd.Control, 0, len(g.Controls)+len(g.NegControls))
	for _, q := range g.Controls {
		controls = append(controls, dd.PosControl(q))
	}
	for _, q := range g.NegControls {
		controls = append(controls, dd.NegControl(q))
	}
	// Validate the gate name eagerly: Apply stores it, but an unknown name
	// would only fail at simulation time.
	if _, err := circuit.Matrix1Q(g.Name, g.Params); err != nil {
		return err
	}
	c.Apply(g.Name, g.Params, g.Target, controls...)
	return nil
}

// normalizeForHash rewrites the request to its canonical form so that
// semantically identical submissions hash identically: the default strategy
// spells out as "exact", whose factory ignores parameters.
func normalizeForHash(req JobRequest) JobRequest {
	if req.Strategy == "" || req.Strategy == StrategyExact {
		req.Strategy = StrategyExact
		req.StrategyParams = nil
	}
	// Backend and noise canonicalize the same way compile resolves them: the
	// empty backend spells out as the effective one, and noise parameters
	// collapse to their parsed form so the "gamma" spelling of amplitude
	// damping hashes identically to "p". Malformed noise is left verbatim —
	// compile rejects it on every backend, so its hash addresses nothing.
	if req.Noise == "" {
		req.NoiseParams = nil
		if req.Backend == "" {
			req.Backend = string(sim.BackendStatevector)
		}
	} else {
		if req.Backend == "" {
			req.Backend = string(sim.BackendDensity)
		}
		if n, err := sim.ParseNoise(req.Noise, req.NoiseParams); err == nil {
			req.Noise = string(n.Kind)
			req.NoiseParams = map[string]float64{"p": n.P}
			if n.Seed != 0 {
				req.NoiseParams["seed"] = float64(n.Seed)
			}
		}
	}
	return req
}

// contentHash is the content-addressing key: sha256 over the canonical
// circuit encoding plus every result-relevant option (callers pass the
// request through normalizeForHash first). Job name and timeout are
// excluded (they cannot change the result payload); an explicit seed is
// included, while seed 0 hashes as 0 and then derives deterministically from
// this very hash, so the derived seed never makes identical submissions
// diverge.
func contentHash(c *circuit.Circuit, req JobRequest) string {
	b := make([]byte, 0, 1024)
	b = append(b, "repro-serve-v2\x00"...)
	b = c.AppendCanonical(b)
	b = append(b, req.Strategy...)
	b = append(b, 0)
	b = append(b, req.Backend...)
	b = append(b, 0)
	b = append(b, req.Noise...)
	b = append(b, 0)
	// normalizeForHash collapsed NoiseParams to at most {"p", "seed"};
	// hashing the two fixed keys keeps the encoding order-independent.
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(req.NoiseParams["p"]))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(req.NoiseParams["seed"]))
	// Four zero words where the removed flat strategy fields (threshold,
	// growth, round_fidelity, final_fidelity) were hashed. Every submission
	// still accepted hashed zeros there, so keeping the words keeps its
	// content hash, derived seed and cache entry unchanged.
	b = append(b, make([]byte, 4*8)...)
	b = binary.BigEndian.AppendUint64(b, req.InitialState)
	b = binary.BigEndian.AppendUint64(b, uint64(req.Shots))
	b = binary.BigEndian.AppendUint64(b, uint64(req.Seed))
	// strategy_params hash verbatim (length-prefixed): two submissions
	// with byte-identical params share the entry; params that differ only
	// in spelling (key order, whitespace) address different entries, which
	// costs at most a duplicate cache slot, never a wrong hit.
	b = binary.BigEndian.AppendUint64(b, uint64(len(req.StrategyParams)))
	b = append(b, req.StrategyParams...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// seedFromHash derives a non-zero measurement seed from the content hash, so
// seedless submissions are reproducible by content alone.
func seedFromHash(hash string) int64 {
	raw, _ := hex.DecodeString(hash[:16])
	seed := int64(binary.BigEndian.Uint64(raw))
	if seed == 0 {
		seed = 1
	}
	return seed
}

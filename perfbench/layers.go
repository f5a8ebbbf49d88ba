package main

import (
	"repro/internal/sim"
)

// simTotals accumulates the per-layer counters that sim.Result exposes,
// over every session of the traced passes.
type simTotals struct {
	lookups, hits       int64
	peakWeights, peakDD int
	mulHit, mulAll      uint64
	addHit, addAll      uint64
	nodesCreated        uint64
	cleanups            int
	rounds, removed     int
	gateNs              [2]float64
	gateCnt             [2]int
	probe               probeTotals
}

func (t *simTotals) add(res *sim.Result) {
	t.lookups += res.WeightTable.Lookups
	t.hits += res.WeightTable.Hits
	t.peakWeights = max(t.peakWeights, res.WeightTable.Peak)
	t.peakDD = max(t.peakDD, res.MaxDDSize)
	st := res.DDStats
	t.mulHit += st.Mul.Hits
	t.mulAll += st.Mul.Hits + st.Mul.Misses
	t.addHit += st.Add.Hits
	t.addAll += st.Add.Hits + st.Add.Misses
	t.nodesCreated += st.VNodesCreated + st.MNodesCreated
	t.cleanups += res.Cleanups
	t.rounds += len(res.Rounds)
	for _, r := range res.Rounds {
		t.removed += r.Report.RemovedNodes
	}
}

func (t *simTotals) addProbe(p *sessionProbe) {
	for i := range t.gateNs {
		t.gateNs[i] += p.gateNs[i]
		t.gateCnt[i] += p.gateCnt[i]
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fill writes the session-derived per-layer metrics, per traced pass.
func (t *simTotals) fill(m map[string]float64, passes int, spans []Span) {
	per := float64(passes)
	m["cnum.lookups"] = float64(t.lookups) / per
	m["cnum.hit_ratio"] = ratio(float64(t.hits), float64(t.lookups))
	m["cnum.peak_weights"] = float64(t.peakWeights)
	m["cnum.weights_per_node"] = ratio(float64(t.peakWeights), float64(t.peakDD))
	m["dd.mul_hit_ratio"] = ratio(float64(t.mulHit), float64(t.mulAll))
	m["dd.add_hit_ratio"] = ratio(float64(t.addHit), float64(t.addAll))
	m["dd.nodes_created"] = float64(t.nodesCreated) / per
	m["dd.cleanups"] = float64(t.cleanups) / per
	t.fillGates(m)
	m["core.rounds"] = float64(t.rounds) / per
	m["core.nodes_removed"] = float64(t.removed) / per
	m["core.useful_ratio"] = ratio(float64(t.probe.useful), float64(t.probe.attempts))
	self := selfByName(spans)
	m["dd.gate_s"] = self["dd.gate"].Seconds() / per
	m["dd.cleanup_s"] = self["dd.cleanup"].Seconds() / per
	m["core.approx_s"] = self["core.approx"].Seconds() / per
	m["sim.self_s"] = self["sim.step"].Seconds() / per
}

// fillGates writes the per-quarter gate times and their ratio.
func (t *simTotals) fillGates(m map[string]float64) {
	m["dd.gate_ns_q1"] = ratio(t.gateNs[0], float64(t.gateCnt[0]))
	m["dd.gate_ns_q4"] = ratio(t.gateNs[1], float64(t.gateCnt[1]))
	m["dd.gate_cost_growth"] = ratio(m["dd.gate_ns_q4"], m["dd.gate_ns_q1"])
}

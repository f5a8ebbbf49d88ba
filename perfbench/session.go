package main

import (
	"repro/internal/core"
	"repro/internal/dd"
)

// probeTotals aggregates what the traced session wrappers measure.
type probeTotals struct {
	attempts, useful int
}

// sessionProbe records the spans of one traced session from outside the
// program: sim.step (one per gate), with children dd.gate (from the start
// of the step to Observer.OnGate), core.approx (Strategy.AfterGate, timed
// by the wrapper below) and dd.cleanup (from AfterGate returning to
// Observer.OnCleanup). When the caller does not drive Step itself (batch
// jobs), a step is taken to start where the previous one ended.
type sessionProbe struct {
	core.NopObserver
	n, q   int // gate count, quarter length
	tr     *Tracer
	job    int64
	parent int64 // enclosing span (batch.job), 0 if none

	gateNs  [2]float64 // dd.gate time in the first and last quarter
	gateCnt [2]int

	stepID       int64
	stepStart    int64
	lastEvent    int64 // end of the latest child span in this step
	stepOpen     bool
	externalStep bool // Begin/End are driven by the caller around Step

	totals *probeTotals
}

func newSessionProbe(tr *Tracer, gates int, job int64, totals *probeTotals) *sessionProbe {
	return &sessionProbe{n: gates, q: max(gates/4, 1), tr: tr, job: job, totals: totals}
}

// Begin opens a sim.step span (called just before Session.Step).
func (p *sessionProbe) Begin() {
	p.externalStep = true
	p.open(p.tr.Now())
}

// End closes the step opened by Begin (called just after Session.Step).
func (p *sessionProbe) End() { p.close(p.tr.Now()) }

func (p *sessionProbe) open(at int64) {
	p.stepID = p.tr.NewID()
	p.stepStart, p.lastEvent, p.stepOpen = at, at, true
}

func (p *sessionProbe) close(at int64) {
	if !p.stepOpen {
		return
	}
	p.tr.Record(Span{ID: p.stepID, Parent: p.parent, Job: p.job, Name: "sim.step", Start: p.stepStart, End: at})
	p.stepOpen = false
}

func (p *sessionProbe) child(name string, start, end int64) {
	p.tr.Record(Span{Parent: p.stepID, Job: p.job, Name: name, Start: start, End: end})
	p.lastEvent = end
}

func (p *sessionProbe) OnGate(e core.GateEvent) {
	now := p.tr.Now()
	if !p.externalStep {
		// The previous step ended at its last observed event. A step opened
		// at job start with no event yet is this gate's step.
		switch {
		case !p.stepOpen:
			p.open(now)
		case p.lastEvent > p.stepStart:
			p.close(p.lastEvent)
			p.open(p.lastEvent)
		}
	}
	p.child("dd.gate", p.stepStart, now)
	switch {
	case e.Index < p.q:
		p.gateNs[0] += float64(now - p.stepStart)
		p.gateCnt[0]++
	case e.Index >= p.n-p.q:
		p.gateNs[1] += float64(now - p.stepStart)
		p.gateCnt[1]++
	}
}

func (p *sessionProbe) OnCleanup(core.CleanupEvent) {
	p.child("dd.cleanup", p.lastEvent, p.tr.Now())
}

func (p *sessionProbe) OnFinish(core.FinishEvent) {
	if !p.externalStep {
		p.close(p.lastEvent)
	}
}

// approxStrategy wraps a strategy so its AfterGate calls become core.approx
// spans, and counts attempts and useful rounds for core.useful_ratio. For
// the memory-driven strategy an attempt is a call that moved the threshold;
// for the fidelity-driven one, a call at a planned location; for others,
// any call that returned a round.
type approxStrategy struct {
	core.Strategy
	probe *sessionProbe
}

func (a approxStrategy) AfterGate(m *dd.Manager, gateIdx, size int, state dd.VEdge) (dd.VEdge, *core.Round, error) {
	p := a.probe
	before := threshold(a.Strategy)
	start := p.tr.Now()
	out, round, err := a.Strategy.AfterGate(m, gateIdx, size, state)
	p.child("core.approx", start, p.tr.Now())
	attempted := round != nil
	switch s := a.Strategy.(type) {
	case *core.MemoryDriven:
		attempted = s.CurrentThreshold() != before
	case *core.FidelityDriven:
		for _, l := range s.PlannedLocations() {
			attempted = attempted || l == gateIdx
		}
	}
	if attempted {
		p.totals.attempts++
	}
	if round != nil {
		p.totals.useful++
	}
	return out, round, err
}

func threshold(s core.Strategy) int {
	if m, ok := s.(*core.MemoryDriven); ok {
		return m.CurrentThreshold()
	}
	return 0
}

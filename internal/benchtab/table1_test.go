package benchtab

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/supremacy"
)

// tinySuite keeps unit-test runtime low while exercising both halves.
func tinySuite() Suite {
	return Suite{
		Name: "tiny",
		Supremacy: []SupremacyCase{
			{
				Config:    supremacy.Config{Rows: 2, Cols: 4, Depth: 12, Seed: 0},
				Threshold: 1 << 5, Growth: 1.1,
				Frounds: []float64{0.99, 0.95},
			},
		},
		Shor: []ShorCase{
			{N: 15, A: 7, FinalFidelity: 0.5, RoundFidelity: 0.9},
			{N: 21, A: 2, FinalFidelity: 0.5, RoundFidelity: 0.9},
		},
		Timeout:    time.Minute,
		SampleTrue: true,
	}
}

func TestMemoryDrivenHalf(t *testing.T) {
	rows, err := tinySuite().RunMemoryDriven(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2 (one per f_round)", len(rows))
	}
	for _, r := range rows {
		if r.ApproxFailed != "" {
			t.Fatalf("row %s failed: %s", r.Name, r.ApproxFailed)
		}
		if r.Approach != "memory-driven" || r.Qubits != 8 {
			t.Errorf("row metadata wrong: %+v", r)
		}
		if r.ExactMaxDD == 0 || r.ApproxMaxDD == 0 {
			t.Errorf("missing DD sizes: %+v", r)
		}
		if r.Rounds > 0 {
			if r.FinalFid >= 1 || r.FinalFid < r.FidBound-1e-9 {
				t.Errorf("fidelity accounting wrong: final %v bound %v", r.FinalFid, r.FidBound)
			}
			if r.TrueFidelity >= 0 && r.TrueFidelity < r.FidBound-0.05 {
				t.Errorf("true fidelity %v far below bound %v", r.TrueFidelity, r.FidBound)
			}
		}
	}
	// Lower f_round must not yield higher final fidelity (more mass removed
	// per round, same trigger schedule).
	if rows[0].Rounds > 0 && rows[1].Rounds > 0 && rows[1].FinalFid > rows[0].FinalFid+0.05 {
		t.Errorf("f_round=0.95 kept more fidelity (%v) than f_round=0.99 (%v)",
			rows[1].FinalFid, rows[0].FinalFid)
	}
}

func TestFidelityDrivenHalf(t *testing.T) {
	rows, err := tinySuite().RunFidelityDriven(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.ApproxFailed != "" {
			t.Fatalf("row %s failed: %s", r.Name, r.ApproxFailed)
		}
		if r.FidBound < 0.5-1e-9 {
			t.Errorf("%s: designed bound %v below f_final 0.5", r.Name, r.FidBound)
		}
		if r.TrueFidelity >= 0 && r.TrueFidelity < 0.5-0.02 {
			t.Errorf("%s: true fidelity %v below target 0.5", r.Name, r.TrueFidelity)
		}
		if r.Rounds > 6 {
			t.Errorf("%s: %d rounds exceed ⌊log_0.9(0.5)⌋ = 6", r.Name, r.Rounds)
		}
	}
	// shor_21_2 is large enough that approximation must shrink the DD.
	last := rows[len(rows)-1]
	if last.Rounds > 0 && last.ApproxMaxDD >= last.ExactMaxDD {
		t.Errorf("%s: approximation did not shrink max DD (%d vs %d)",
			last.Name, last.ApproxMaxDD, last.ExactMaxDD)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{PresetSmall, PresetMedium, PresetPaper} {
		s, err := NewSuite(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if len(s.Supremacy) == 0 || len(s.Shor) == 0 {
			t.Errorf("preset %s missing cases", name)
		}
	}
	if _, err := NewSuite("bogus"); err == nil {
		t.Error("unknown preset accepted")
	}
	// The paper preset must contain the original instances.
	p, _ := NewSuite(PresetPaper)
	if p.Supremacy[0].Config.Name() != "qsup_4x5_15_0" {
		t.Errorf("paper preset supremacy instance %s", p.Supremacy[0].Config.Name())
	}
	found1157 := false
	for _, c := range p.Shor {
		if c.N == 1157 && c.A == 8 {
			found1157 = true
		}
	}
	if !found1157 {
		t.Error("paper preset missing shor_1157_8")
	}
	if p.Timeout != 3*time.Hour {
		t.Errorf("paper timeout %v, want 3h", p.Timeout)
	}
}

func TestFormatters(t *testing.T) {
	rows := []Row{
		{
			Approach: "memory-driven", Name: "qsup_2x2_4_0", Qubits: 4,
			ExactMaxDD: 15, ExactTime: 1500 * time.Microsecond,
			ApproxMaxDD: 10, Rounds: 2, RoundFid: 0.99,
			ApproxTime: 800 * time.Microsecond, FinalFid: 0.98, FidBound: 0.9801,
			TrueFidelity: 0.981,
		},
		{
			Approach: "fidelity-driven", Name: "shor_629_8", Qubits: 30,
			ExactTimeout: true, ApproxMaxDD: 57710, Rounds: 5, RoundFid: 0.9,
			ApproxTime: 2 * time.Second, FinalFid: 0.596, FidBound: 0.59,
			TrueFidelity: -1,
		},
		{
			Approach: "memory-driven", Name: "broken", Qubits: 2,
			ApproxFailed: "deadline exceeded",
		},
	}
	md := FormatMarkdown(rows)
	for _, want := range []string{"qsup_2x2_4_0", "shor_629_8", "Timeout", "failed", "0.98", "1.88x"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	csv := FormatCSV(rows)
	if lines := strings.Count(csv, "\n"); lines != 4 {
		t.Errorf("CSV has %d lines, want 4", lines)
	}
	if !strings.Contains(csv, "shor_629_8") || !strings.Contains(csv, "true") {
		t.Errorf("CSV content wrong:\n%s", csv)
	}
}

func TestDeadlineProducesTimeoutRow(t *testing.T) {
	s := tinySuite()
	s.Timeout = time.Nanosecond // force immediate deadline
	s.SampleTrue = false
	rows, err := s.RunFidelityDriven(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.ExactTimeout {
			t.Errorf("%s: expected timeout marker, got %+v", r.Name, r)
		}
	}
}

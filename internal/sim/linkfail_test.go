package sim

import (
	"errors"
	"math"
	"testing"

	"ftbar/internal/arch"
)

// The paper's conclusion announces link failures as future work; the
// simulator implements them as fail-silent media. FTBAR's replication of
// every inter-processor comm over parallel point-to-point links happens to
// mask any single link failure on the worked example: the Npf+1 = 2 copies
// of each dependency travel over disjoint links.

func TestSingleLinkFailureIsMaskedOnExample(t *testing.T) {
	s := paperSchedule(t)
	for m := arch.MediumID(0); m < 3; m++ {
		res, err := Run(s, Scenario{
			MediumFailures: []MediumFailure{PermanentLink(m, 0)},
		})
		if err != nil {
			t.Fatalf("link %d: %v", m, err)
		}
		ir := res.Iterations[0]
		if !ir.OutputsOK {
			t.Errorf("failure of %s lost outputs", s.Problem().Arc.Medium(m).Name)
		}
		if ir.Makespan > 16 {
			t.Errorf("failure of %s pushed makespan to %g, above Rtc",
				s.Problem().Arc.Medium(m).Name, ir.Makespan)
		}
	}
}

func TestAllLinksDownLosesOutputs(t *testing.T) {
	s := paperSchedule(t)
	res, err := Run(s, Scenario{
		MediumFailures: []MediumFailure{
			PermanentLink(0, 0), PermanentLink(1, 0), PermanentLink(2, 0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With every link dead, A's replica on P3 never gets I's value; the
	// graph still completes on P1/P2 chains if they are comm-free... on
	// this schedule G#0 on P2 needs F from P1/P3, so outputs must suffer.
	if res.Iterations[0].OutputsOK && res.Iterations[0].Skipped == 0 {
		t.Error("all links dead yet nothing skipped")
	}
}

func TestIntermittentLinkDelaysNotLoses(t *testing.T) {
	s := paperSchedule(t)
	// L1.3 down around the I->A transmission [1, 2.25): the frame is lost
	// but the replica on P3 still gets I's value from P2 over L2.3.
	l13, _ := s.Problem().Arc.MediumByName("L1.3")
	res, err := Run(s, Scenario{
		MediumFailures: []MediumFailure{IntermittentLink(l13.ID, 0.5, 2.0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Iterations[0]
	if !ir.OutputsOK {
		t.Error("intermittent link failure lost outputs")
	}
	if ir.Skipped == 0 {
		t.Error("expected at least one lost frame")
	}
}

func TestLinkAndProcessorFailureTogether(t *testing.T) {
	// One processor AND one link down exceeds what Npf = 1 promises; the
	// simulator must still terminate and report honestly.
	s := paperSchedule(t)
	res, err := Run(s, Scenario{
		Failures:       []Failure{Permanent(0, 0)},
		MediumFailures: []MediumFailure{PermanentLink(2, 0)}, // L2.3
	})
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Iterations[0]
	if ir.Done == 0 {
		t.Error("nothing executed at all")
	}
}

func TestScenarioValidatesMediumFailures(t *testing.T) {
	s := paperSchedule(t)
	_, err := Run(s, Scenario{MediumFailures: []MediumFailure{PermanentLink(9, 0)}})
	if !errors.Is(err, ErrUnknownMedium) {
		t.Errorf("unknown medium error = %v", err)
	}
	_, err = Run(s, Scenario{MediumFailures: []MediumFailure{IntermittentLink(0, 3, 2)}})
	if !errors.Is(err, ErrBadFailure) {
		t.Errorf("empty window error = %v", err)
	}
	// A NaN recovery time must not silently cancel the failure.
	_, err = Run(s, Scenario{MediumFailures: []MediumFailure{IntermittentLink(0, 0, math.NaN())}})
	if !errors.Is(err, ErrBadFailure) {
		t.Errorf("NaN until error = %v", err)
	}
}

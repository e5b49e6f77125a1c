package sched

import (
	"errors"
	"strings"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/spec"
)

// validSchedule builds a fully valid Npf=1 schedule with real comms:
// a on P1/P2, b on P2/P3 (b#1 on P3 receives from both replicas of a).
func validSchedule(t *testing.T) *Schedule {
	t.Helper()
	s := newSched(t, threeProcChain(t))
	a := taskByName(t, s, "a")
	b := taskByName(t, s, "b")
	for _, pl := range []struct {
		task model.TaskID
		proc arch.ProcID
	}{{a, 0}, {a, 1}, {b, 1}, {b, 2}} {
		if _, err := s.PlaceReplica(pl.task, pl.proc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return s
}

// wantInvalid asserts Validate fails mentioning the given fragment, at the
// rule the map-keyed oracle (oracle_test.go) fails first.
func wantInvalid(t *testing.T, s *Schedule, fragment string) {
	t.Helper()
	checkAgainstOracle(t, s)
	err := s.Validate()
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("Validate = %v, want ErrInvalid", err)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("Validate error %q does not mention %q", err, fragment)
	}
}

func TestValidateCatchesReplicaIndexMismatch(t *testing.T) {
	s := validSchedule(t)
	s.Replicas(0)[0].Index = 5
	wantInvalid(t, s, "index")
}

func TestValidateCatchesColocatedReplicas(t *testing.T) {
	s := validSchedule(t)
	a := taskByName(t, s, "a")
	reps := s.Replicas(a)
	reps[1].Proc = reps[0].Proc
	wantInvalid(t, s, "two replicas")
}

func TestValidateCatchesForbiddenPlacement(t *testing.T) {
	s := validSchedule(t)
	a := taskByName(t, s, "a")
	op := s.Tasks().Task(a).Op
	s.Problem().Exec.Forbid(op, s.Replicas(a)[0].Proc)
	wantInvalid(t, s, "forbidden")
}

func TestValidateCatchesProcessorOverlap(t *testing.T) {
	s := validSchedule(t)
	seq := s.ProcSeq(1) // a#1 then b#0 on P2
	if len(seq) < 2 {
		t.Fatal("fixture drift: need two items on P2")
	}
	// Pull the second item into the first one's window, keeping
	// End = Start + exec so the per-replica check stays green.
	delta := seq[1].Start - seq[0].Start - 0.5
	seq[1].Start -= delta
	seq[1].End -= delta
	wantInvalid(t, s, "overlaps")
}

func TestValidateCatchesMediumOverlap(t *testing.T) {
	s := validSchedule(t)
	// Both comms serve b#1; move them onto one medium overlapping.
	var comms []*Comm
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		comms = append(comms, s.MediumSeq(arch.MediumID(m))...)
	}
	if len(comms) != 2 {
		t.Fatalf("fixture drift: %d comms", len(comms))
	}
	// Corrupt the materialised view: Validate reads through it, and with
	// no commit in between it keeps serving this same instance.
	v := s.viewRO()
	src := comms[1]
	v.mediumSeq[src.Medium] = nil
	dstMedium := comms[0].Medium
	moved := *src
	moved.Medium = dstMedium
	// Same window as comms[0] -> overlap. Endpoints stay on the medium
	// only if both procs connect; use identical From/To as comms[0].
	moved.From, moved.To = comms[0].From, comms[0].To
	moved.Start, moved.End = comms[0].Start, comms[0].End
	v.mediumSeq[dstMedium] = append(v.mediumSeq[dstMedium], &moved)
	checkAgainstOracle(t, s)
	if err := s.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Validate = %v, want ErrInvalid", err)
	}
}

func TestValidateCatchesWrongMediumField(t *testing.T) {
	s := validSchedule(t)
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		if seq := s.MediumSeq(arch.MediumID(m)); len(seq) > 0 {
			seq[0].Medium = arch.MediumID((m + 1) % s.Problem().Arc.NumMedia())
			break
		}
	}
	wantInvalid(t, s, "medium")
}

func TestValidateCatchesEndpointsOffMedium(t *testing.T) {
	s := validSchedule(t)
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		if seq := s.MediumSeq(arch.MediumID(m)); len(seq) > 0 {
			seq[0].To = seq[0].From // From == To is always invalid
			break
		}
	}
	wantInvalid(t, s, "endpoints")
}

func TestValidateCatchesBadDuration(t *testing.T) {
	s := validSchedule(t)
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		if seq := s.MediumSeq(arch.MediumID(m)); len(seq) > 0 {
			seq[0].End += 0.25
			break
		}
	}
	wantInvalid(t, s, "duration")
}

func TestValidateCatchesCommBeforeSource(t *testing.T) {
	s := validSchedule(t)
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		if seq := s.MediumSeq(arch.MediumID(m)); len(seq) > 0 {
			// Keep duration consistent but start before the source ends.
			dur := seq[0].End - seq[0].Start
			seq[0].Start = 0.1
			seq[0].End = 0.1 + dur
			break
		}
	}
	wantInvalid(t, s, "before source")
}

func TestValidateCatchesDanglingSourceIndex(t *testing.T) {
	s := validSchedule(t)
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		if seq := s.MediumSeq(arch.MediumID(m)); len(seq) > 0 {
			seq[0].SrcIndex = 9
			break
		}
	}
	wantInvalid(t, s, "source replica")
}

func TestValidateCatchesMissingIncomingComm(t *testing.T) {
	s := validSchedule(t)
	// Drop one of b#1's two incoming comms: coverage requires Npf+1 = 2.
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		if seq := s.MediumSeq(arch.MediumID(m)); len(seq) > 0 {
			s.viewRO().mediumSeq[m] = nil
			break
		}
	}
	wantInvalid(t, s, "incoming comms")
}

func TestValidateCatchesStartBeforeFirstArrival(t *testing.T) {
	s := validSchedule(t)
	b := taskByName(t, s, "b")
	r := s.Replicas(b)[1] // the replica fed by comms
	r.Start -= 0.4
	r.End -= 0.4
	wantInvalid(t, s, "starts")
}

func TestValidateCatchesMemPairDislocation(t *testing.T) {
	g := model.NewGraph()
	in := g.MustAddOp("in", model.ExtIO)
	ctl := g.MustAddOp("ctl", model.Comp)
	st := g.MustAddOp("st", model.Mem)
	g.MustAddEdge(in, ctl)
	g.MustAddEdge(st, ctl)
	g.MustAddEdge(ctl, st)
	ar := arch.FullyConnected(3)
	exec, _ := spec.NewUniformExecTable(g, ar, 1)
	comm, _ := spec.NewUniformCommTable(g, ar, 0.5)
	p := &spec.Problem{Alg: g, Arc: ar, Exec: exec, Comm: comm, Npf: 1}
	s := newSched(t, p)
	// Schedule by hand, honouring the pairing first, then break it.
	read := taskByName(t, s, "st/read")
	write := taskByName(t, s, "st/write")
	tin := taskByName(t, s, "in")
	tctl := taskByName(t, s, "ctl")
	for _, pl := range []struct {
		task model.TaskID
		proc arch.ProcID
	}{{read, 0}, {read, 1}, {tin, 0}, {tin, 1}, {tctl, 0}, {tctl, 1}, {write, 0}, {write, 1}} {
		if _, err := s.PlaceReplica(pl.task, pl.proc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	s.Replicas(write)[0].Proc = 2
	checkAgainstOracle(t, s)
	if err := s.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Validate = %v, want ErrInvalid (mem pair broken)", err)
	}
}

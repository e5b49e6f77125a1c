// Package reliab evaluates the reliability of a fault-tolerant static
// schedule: the probability that every output is produced given
// independent per-processor and per-medium failure probabilities. Taking
// reliability into account is the second extension the paper's conclusion
// announces as future work; the joint processor+medium dimension follows
// Goemans/Lynch/Saias in asking how many faults — of either kind,
// together — a system withstands without repairs, so the evaluator
// reports the schedule's masked region over the whole (processor-crash
// count, medium-crash count) lattice rather than two independent axes.
//
// Two evaluation modes share one Report shape. The exact mode crashes
// every subset of processors and media at the start of the iteration (the
// worst instant for data availability — a later crash only leaves more
// values delivered) and re-executes the schedule in the discrete-event
// simulator; a subset counts as masked when all outputs survive. The
// enumeration is exponential in the unit count and guarded at ~20 units
// (2^20 simulations). Beyond that, a seeded Monte-Carlo estimator samples
// crash sets from the model, reports the estimated reliability with a 95%
// normal-approximation confidence interval, and stays deterministic for a
// fixed seed and sample count. EvaluateAuto picks the mode.
package reliab

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"ftbar/internal/arch"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
)

// Errors reported by the evaluator.
var (
	ErrBadModel = errors.New("reliab: invalid failure model")
	ErrTooLarge = errors.New("reliab: too many processors and media for exact enumeration")
	ErrBadOpts  = errors.New("reliab: invalid evaluation options")
)

// maxExactUnits bounds the exact enumeration (2^maxExactUnits
// simulations over processors plus media).
const maxExactUnits = 20

// Evaluation method names reported in Report.Method.
const (
	MethodExact      = "exact"
	MethodMonteCarlo = "montecarlo"
)

// Model holds the per-iteration failure probability of every processor
// and, optionally, of every medium.
type Model struct {
	// PFail[p] is the probability that processor p fail-silently crashes
	// during one iteration.
	PFail []float64
	// MFail[m] is the probability that medium m fail-silently crashes
	// during one iteration. A nil MFail models perfectly reliable media:
	// the evaluation then enumerates processor subsets only, the
	// pre-joint behaviour.
	MFail []float64
}

// Uniform returns a processor-only model where every one of n processors
// fails with probability q and media never fail.
func Uniform(n int, q float64) Model {
	m := Model{PFail: make([]float64, n)}
	for i := range m.PFail {
		m.PFail[i] = q
	}
	return m
}

// UniformJoint is the media arm of Uniform: procs processors each failing
// with probability qp plus media media each failing with probability qm.
func UniformJoint(procs, media int, qp, qm float64) Model {
	m := Uniform(procs, qp)
	m.MFail = make([]float64, media)
	for i := range m.MFail {
		m.MFail[i] = qm
	}
	return m
}

// Report is the outcome of a reliability evaluation.
type Report struct {
	// Method is MethodExact or MethodMonteCarlo.
	Method string
	// Reliability is the probability that every output is produced (the
	// point estimate under Monte-Carlo).
	Reliability float64
	// CILow and CIHigh bound the 95% confidence interval of Reliability.
	// Exact evaluations report the degenerate interval [R, R].
	CILow, CIHigh float64
	// Samples is the Monte-Carlo sample count (0 for exact).
	Samples int
	// MaskedSubsets counts the crash subsets the schedule masks, out of
	// TotalSubsets (exact mode only; joint models count subsets over
	// processors × media).
	MaskedSubsets int
	TotalSubsets  int
	// GuaranteedNpf is the largest k such that *every* subset of at most
	// k crashed processors (all media alive) is masked — the schedule's
	// actual achieved processor tolerance, which can exceed the Npf it
	// was built for. Exact mode only.
	GuaranteedNpf int
	// GuaranteedNmf is the media analogue: the largest k such that every
	// subset of at most k crashed media (all processors alive) is
	// masked. Exact joint mode only; 0 when media are not modelled.
	GuaranteedNmf int
	// MaskedLattice[i][j] is the masked fraction of the crash subsets
	// with exactly i processors and j media down — the masked region
	// over the (Npf, Nmf) lattice. A cell equals 1 exactly when every
	// subset of that shape is masked. Exact mode only; processor-only
	// models have a single j = 0 column.
	MaskedLattice [][]float64
	// UnmaskedMinimal lists the smallest unmasked processor subsets with
	// all media alive — the schedule's weakest processor points.
	UnmaskedMinimal [][]arch.ProcID
	// UnmaskedMinimalMedia lists the smallest unmasked media subsets
	// with all processors alive. Empty unless media are modelled.
	UnmaskedMinimalMedia [][]arch.MediumID
}

// checkModel validates the model against the schedule's architecture and
// returns the unit counts (media 0 when not modelled).
func checkModel(s *sched.Schedule, m Model) (int, int, error) {
	nP := s.Problem().Arc.NumProcs()
	nM := 0
	if len(m.PFail) != nP {
		return 0, 0, fmt.Errorf("%w: %d probabilities for %d processors", ErrBadModel, len(m.PFail), nP)
	}
	if m.MFail != nil {
		nM = s.Problem().Arc.NumMedia()
		if len(m.MFail) != nM {
			return 0, 0, fmt.Errorf("%w: %d probabilities for %d media", ErrBadModel, len(m.MFail), nM)
		}
	}
	for p, q := range m.PFail {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return 0, 0, fmt.Errorf("%w: PFail[%d] = %g", ErrBadModel, p, q)
		}
	}
	for i, q := range m.MFail {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return 0, 0, fmt.Errorf("%w: MFail[%d] = %g", ErrBadModel, i, q)
		}
	}
	return nP, nM, nil
}

// Evaluate computes the exact report for a schedule under the model,
// enumerating every crash subset: processor subsets when the model has no
// media arm, the full processor × media lattice otherwise. It refuses
// architectures beyond maxExactUnits; use EvaluateAuto or MonteCarlo
// there.
func Evaluate(s *sched.Schedule, m Model) (*Report, error) {
	nP, nM, err := checkModel(s, m)
	if err != nil {
		return nil, err
	}
	if nP+nM > maxExactUnits {
		return nil, fmt.Errorf("%w: %d processors + %d media", ErrTooLarge, nP, nM)
	}
	total := 1 << (nP + nM)
	masked, err := sim.CrashSetsMasked(s, total, func(mask int, procs []arch.ProcID, media []arch.MediumID) ([]arch.ProcID, []arch.MediumID) {
		for p := 0; p < nP; p++ {
			if mask&(1<<p) != 0 {
				procs = append(procs, arch.ProcID(p))
			}
		}
		for mi := 0; mi < nM; mi++ {
			if mask&(1<<(nP+mi)) != 0 {
				media = append(media, arch.MediumID(mi))
			}
		}
		return procs, media
	})
	if err != nil {
		return nil, err
	}
	// The all-processors crash is trivially unmasked.
	for mask := 1<<nP - 1; mask < total; mask += 1 << nP {
		masked[mask] = false
	}
	return exactReport(m, nP, nM, masked), nil
}

// exactReport reduces the masked flag of every crash subset (processors
// in the low nP bits of the index, media above) to the exact report.
func exactReport(m Model, nP, nM int, masked []bool) *Report {
	total := len(masked)
	rep := &Report{
		Method:        MethodExact,
		TotalSubsets:  total,
		GuaranteedNpf: nP,
		GuaranteedNmf: nM,
	}
	latticeCount := make([][]int, nP+1)
	latticeMasked := make([][]int, nP+1)
	for i := range latticeCount {
		latticeCount[i] = make([]int, nM+1)
		latticeMasked[i] = make([]int, nM+1)
	}
	for mask := 0; mask < total; mask++ {
		pc := bits.OnesCount(uint(mask & (1<<nP - 1)))
		mc := bits.OnesCount(uint(mask >> nP))
		latticeCount[pc][mc]++
		if masked[mask] {
			rep.MaskedSubsets++
			latticeMasked[pc][mc]++
			rep.Reliability += subsetProb(m, mask, nP, nM)
			continue
		}
		if mc == 0 && pc-1 < rep.GuaranteedNpf {
			rep.GuaranteedNpf = pc - 1
		}
		if pc == 0 && mc-1 < rep.GuaranteedNmf {
			rep.GuaranteedNmf = mc - 1
		}
	}
	rep.CILow, rep.CIHigh = rep.Reliability, rep.Reliability
	rep.MaskedLattice = make([][]float64, nP+1)
	for i := range rep.MaskedLattice {
		rep.MaskedLattice[i] = make([]float64, nM+1)
		for j := range rep.MaskedLattice[i] {
			rep.MaskedLattice[i][j] = float64(latticeMasked[i][j]) / float64(latticeCount[i][j])
		}
	}
	rep.UnmaskedMinimal = minimalUnmaskedProcs(masked, nP)
	if nM > 0 {
		rep.UnmaskedMinimalMedia = minimalUnmaskedMedia(masked, nP, nM)
	}
	return rep
}

// Options tunes EvaluateAuto's dispatch and the Monte-Carlo estimator.
type Options struct {
	// Samples is the Monte-Carlo sample count (default 20000).
	Samples int
	// Seed seeds the deterministic crash-set sampler.
	Seed int64
}

// EvaluateAuto evaluates exactly when the architecture's processors plus
// modelled media fit the exact enumeration bound, and falls back to the
// seeded Monte-Carlo estimator beyond it (the Report.Method field records
// which one ran).
func EvaluateAuto(s *sched.Schedule, m Model, opts Options) (*Report, error) {
	nP, nM, err := checkModel(s, m)
	if err != nil {
		return nil, err
	}
	if nP+nM <= maxExactUnits {
		return Evaluate(s, m)
	}
	return MonteCarlo(s, m, opts)
}

// MonteCarlo estimates the reliability by sampling crash sets from the
// model, simulating each, and averaging the masked indicator. The sampler
// is a fixed-seed PRNG drawn serially, so the estimate is deterministic
// for a (seed, samples) pair regardless of how many workers simulate; the
// 95% confidence interval uses the normal approximation
// p̂ ± 1.96·sqrt(p̂(1−p̂)/n), clamped to [0, 1].
func MonteCarlo(s *sched.Schedule, m Model, opts Options) (*Report, error) {
	nP, nM, err := checkModel(s, m)
	if err != nil {
		return nil, err
	}
	samples := opts.Samples
	if samples == 0 {
		samples = 20000
	}
	if samples < 1 {
		return nil, fmt.Errorf("%w: %d samples", ErrBadOpts, samples)
	}
	// Crash sets are drawn up front from one sequential PRNG; the
	// simulations then fan out over sim's pool into disjoint slots.
	rng := rand.New(rand.NewSource(opts.Seed))
	crashProcs := make([][]arch.ProcID, samples)
	crashMedia := make([][]arch.MediumID, samples)
	for i := 0; i < samples; i++ {
		for p := 0; p < nP; p++ {
			if rng.Float64() < m.PFail[p] {
				crashProcs[i] = append(crashProcs[i], arch.ProcID(p))
			}
		}
		for mi := 0; mi < nM; mi++ {
			if rng.Float64() < m.MFail[mi] {
				crashMedia[i] = append(crashMedia[i], arch.MediumID(mi))
			}
		}
	}
	maskedOut, err := sim.CrashSetsMasked(s, samples, func(i int, procs []arch.ProcID, media []arch.MediumID) ([]arch.ProcID, []arch.MediumID) {
		return append(procs, crashProcs[i]...), append(media, crashMedia[i]...)
	})
	if err != nil {
		return nil, err
	}
	maskedN := 0
	for i, ok := range maskedOut {
		// The all-processors crash is trivially unmasked.
		if ok && len(crashProcs[i]) < nP {
			maskedN++
		}
	}
	p := float64(maskedN) / float64(samples)
	half := 1.96 * math.Sqrt(p*(1-p)/float64(samples))
	return &Report{
		Method:      MethodMonteCarlo,
		Reliability: p,
		CILow:       math.Max(0, p-half),
		CIHigh:      math.Min(1, p+half),
		Samples:     samples,
	}, nil
}

// subsetProb is the probability of exactly this crash subset.
func subsetProb(m Model, mask, nP, nM int) float64 {
	p := 1.0
	for i := 0; i < nP; i++ {
		if mask&(1<<i) != 0 {
			p *= m.PFail[i]
		} else {
			p *= 1 - m.PFail[i]
		}
	}
	for i := 0; i < nM; i++ {
		if mask&(1<<(nP+i)) != 0 {
			p *= m.MFail[i]
		} else {
			p *= 1 - m.MFail[i]
		}
	}
	return p
}

// minimalUnmaskedProcs returns the unmasked all-media-alive processor
// subsets none of whose proper subsets are unmasked.
func minimalUnmaskedProcs(masked []bool, nP int) [][]arch.ProcID {
	var out [][]arch.ProcID
	for mask := 1; mask < 1<<nP; mask++ {
		if masked[mask] {
			continue
		}
		minimal := true
		for p := 0; p < nP && minimal; p++ {
			if mask&(1<<p) != 0 && !masked[mask&^(1<<p)] {
				minimal = false
			}
		}
		if minimal {
			var set []arch.ProcID
			for p := 0; p < nP; p++ {
				if mask&(1<<p) != 0 {
					set = append(set, arch.ProcID(p))
				}
			}
			out = append(out, set)
		}
	}
	return out
}

// minimalUnmaskedMedia returns the unmasked all-processors-alive media
// subsets none of whose proper subsets are unmasked.
func minimalUnmaskedMedia(masked []bool, nP, nM int) [][]arch.MediumID {
	var out [][]arch.MediumID
	for mm := 1; mm < 1<<nM; mm++ {
		mask := mm << nP
		if masked[mask] {
			continue
		}
		minimal := true
		for i := 0; i < nM && minimal; i++ {
			if mm&(1<<i) != 0 && !masked[(mm&^(1<<i))<<nP] {
				minimal = false
			}
		}
		if minimal {
			var set []arch.MediumID
			for i := 0; i < nM; i++ {
				if mm&(1<<i) != 0 {
					set = append(set, arch.MediumID(i))
				}
			}
			out = append(out, set)
		}
	}
	return out
}

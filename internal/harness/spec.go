// Package harness runs the declarative scenario corpus (DESIGN.md
// Section 17): JSON specs — one file per scenario under
// testdata/scenarios/ — naming a generated problem population (topology,
// task-graph family, fault budget), the planner options to schedule it
// under, and the guarantee floors the population must clear. The runner
// executes every scenario through core.Run, the schedule validators and
// the sim sweeps and checks the measured rates against the floors; the
// corpus benchmark (internal/bench, `ftbench -experiment corpus`)
// records the same outcomes as a BENCH trajectory, and `ftgen -scenario`
// re-emits any single problem of a scenario for the command-line tools.
package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ftbar/internal/core"
	"ftbar/internal/gen"
)

// SpecVersion is the scenario document version this package reads and
// writes. Loaders refuse other versions so a future incompatible schema
// cannot be silently misread as this one.
const SpecVersion = 1

// ErrBadSpec reports a scenario document that parsed but fails the
// schema's semantic rules.
var ErrBadSpec = errors.New("harness: invalid scenario spec")

// Spec is one declarative scenario: a generated problem population and
// the floors it must clear. The JSON form is strict — unknown fields are
// rejected — so typos in committed scenario files fail loudly.
type Spec struct {
	// Version must equal SpecVersion.
	Version int `json:"version"`
	// Name identifies the scenario; the convention is
	// "<topology><procs>-<family>-<npf><nmf>".
	Name string `json:"name"`
	// Description says what the scenario stresses.
	Description string `json:"description,omitempty"`
	// Gen parameterises the generated problem population.
	Gen GenSpec `json:"gen"`
	// Graphs is the population size: seeds Gen.Seed+i for i < Graphs.
	Graphs int `json:"graphs"`
	// Options selects the planner configuration to schedule under.
	Options OptSpec `json:"options,omitempty"`
	// Floors are the minimum rates the population must reach.
	Floors Floors `json:"floors"`
	// MakespanCeiling, when positive, bounds the mean fault-free schedule
	// length over the validated runs.
	MakespanCeiling float64 `json:"makespan_ceiling,omitempty"`
}

// GenSpec mirrors gen.Params in JSON form with string-named topology and
// family.
type GenSpec struct {
	N             int     `json:"n"`
	CCR           float64 `json:"ccr"`
	Procs         int     `json:"procs"`
	Topology      string  `json:"topology,omitempty"`
	Family        string  `json:"family,omitempty"`
	Width         int     `json:"width,omitempty"`
	Radius        float64 `json:"radius,omitempty"`
	Npf           int     `json:"npf"`
	Nmf           int     `json:"nmf,omitempty"`
	Seed          int64   `json:"seed"`
	Heterogeneity float64 `json:"heterogeneity,omitempty"`
}

// OptSpec selects the core.Options of a scenario.
type OptSpec struct {
	// NoDuplication disables Minimize-start-time duplication.
	NoDuplication bool `json:"no_duplication,omitempty"`
}

// Floors are minimum rates in [0, 1]. They are floors, not exact values,
// because the populations are random: a floor survives generator
// evolution and platform drift where an exact rate would pin noise
// (DESIGN.md Section 17). The zero value of a field means "not asserted"
// except ValidatedRate, where 0 asserts only that the runner completes.
type Floors struct {
	// ValidatedRate bounds Validated / Graphs from below.
	ValidatedRate float64 `json:"validated_rate"`
	// LinkMasked bounds the single-link sweep's masked fraction over the
	// validated schedules. Validated schedules guarantee 1.0 by
	// construction, so corpus scenarios assert exactly that.
	LinkMasked float64 `json:"link_masked,omitempty"`
	// ProcMasked bounds the single-processor sweep's masked fraction.
	ProcMasked float64 `json:"proc_masked,omitempty"`
	// CombinedMasked bounds the combined (processor, link) sweep's masked
	// fraction; pairs are guaranteed only when Npf >= Nmf + 1.
	CombinedMasked float64 `json:"combined_masked,omitempty"`
	// JointRate bounds JointValidated / Graphs from below, like
	// ValidatedRate: the share of the population whose schedules carry
	// the joint-survivability certificate.
	JointRate float64 `json:"joint_rate,omitempty"`
}

// Params converts the generation block to gen.Params for graph i of the
// population.
func (s *Spec) Params(i int) (gen.Params, error) {
	topo, err := gen.ParseTopology(s.Gen.Topology)
	if err != nil {
		return gen.Params{}, err
	}
	fam, err := gen.ParseFamily(s.Gen.Family)
	if err != nil {
		return gen.Params{}, err
	}
	return gen.Params{
		N: s.Gen.N, CCR: s.Gen.CCR, Procs: s.Gen.Procs,
		Topology: topo, Family: fam, Width: s.Gen.Width, Radius: s.Gen.Radius,
		Npf: s.Gen.Npf, Nmf: s.Gen.Nmf,
		Seed:          s.Gen.Seed + int64(i),
		Heterogeneity: s.Gen.Heterogeneity,
	}, nil
}

// CoreOptions converts the options block to core.Options.
func (s *Spec) CoreOptions() core.Options {
	return core.Options{NoDuplication: s.Options.NoDuplication}
}

// Validate checks the schema's semantic rules: version, name, a
// generatable population, floors and ceiling in range.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadSpec, s.Version, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadSpec)
	}
	if s.Graphs < 1 || s.Graphs > 1000 {
		return fmt.Errorf("%w: %s: graphs = %d", ErrBadSpec, s.Name, s.Graphs)
	}
	// Schema size caps: scenarios are corpus-sized by design, and the
	// caps keep a malformed (or fuzzed) document from turning the
	// feasibility probe below into an unbounded allocation.
	if s.Gen.N > 1000 || s.Gen.Procs > 64 || s.Gen.Width > 32 {
		return fmt.Errorf("%w: %s: population too large (n=%d procs=%d width=%d)",
			ErrBadSpec, s.Name, s.Gen.N, s.Gen.Procs, s.Gen.Width)
	}
	params, err := s.Params(0)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadSpec, s.Name, err)
	}
	if _, err := gen.Generate(params); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadSpec, s.Name, err)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"validated_rate", s.Floors.ValidatedRate},
		{"link_masked", s.Floors.LinkMasked},
		{"proc_masked", s.Floors.ProcMasked},
		{"combined_masked", s.Floors.CombinedMasked},
		{"joint_rate", s.Floors.JointRate},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("%w: %s: floor %s = %g outside [0, 1]",
				ErrBadSpec, s.Name, f.name, f.v)
		}
	}
	if s.MakespanCeiling < 0 {
		return fmt.Errorf("%w: %s: makespan_ceiling = %g", ErrBadSpec, s.Name, s.MakespanCeiling)
	}
	return nil
}

// Parse reads one scenario document, strictly: unknown fields, trailing
// data and semantic violations are errors.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// A second document in the same file is a mistake, not an extension.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the scenario document", ErrBadSpec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses the scenario file at path.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir parses every *.json file in dir, sorted by filename, and
// refuses duplicate scenario names.
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: no scenario files in %s", ErrBadSpec, dir)
	}
	specs := make([]*Spec, 0, len(names))
	seen := make(map[string]string, len(names))
	for _, name := range names {
		s, err := LoadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("%w: scenario %q in both %s and %s",
				ErrBadSpec, s.Name, prev, name)
		}
		seen[s.Name] = name
		specs = append(specs, s)
	}
	return specs, nil
}

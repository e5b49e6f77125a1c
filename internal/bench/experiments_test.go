package bench

import (
	"testing"

	"ftbar/internal/gen"
)

// TestFig9Topologies smoke-tests the paper sweep on every architecture
// shape: the open roadmap item was extending Figures 9/10 beyond the
// fully connected layout.
func TestFig9Topologies(t *testing.T) {
	for _, topo := range gen.Topologies() {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			pts, err := Fig9(Fig9Config{
				Ns: []int{10}, CCR: 2, Procs: 4, Graphs: 2, Seed: 2003, Topology: topo,
			})
			if err != nil {
				t.Fatalf("Fig9 on %s: %v", topo, err)
			}
			if len(pts) != 1 || pts[0].Graphs != 2 {
				t.Fatalf("unexpected points: %+v", pts)
			}
			if pts[0].FTBAR < 0 || pts[0].FTBAR > 100 {
				t.Errorf("implausible overhead %g on %s", pts[0].FTBAR, topo)
			}
			// Full connectivity guarantees masking (the paper's setting);
			// sparse topologies may have routing cut vertices but must
			// still mask some crashes.
			if topo == gen.TopoFull && pts[0].FTBARMasked != 1 {
				t.Errorf("fully connected masking fraction %g, want 1", pts[0].FTBARMasked)
			}
			if pts[0].FTBARMasked <= 0 {
				t.Errorf("no masked crashes at all on %s", topo)
			}
		})
	}
}

func TestFig10Topologies(t *testing.T) {
	for _, topo := range gen.Topologies() {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			pts, err := Fig10(Fig10Config{
				CCRs: []float64{1}, N: 10, Procs: 4, Graphs: 2, Seed: 2003, Topology: topo,
			})
			if err != nil {
				t.Fatalf("Fig10 on %s: %v", topo, err)
			}
			if len(pts) != 1 {
				t.Fatalf("unexpected points: %+v", pts)
			}
		})
	}
}

// TestAggregateUnmaskedOverheads pins the topology-aware aggregation: a
// synthetic comparison set with one unmasked crash feeds the unmasked
// mean/max columns and leaves the masked failure overheads untouched.
func TestAggregateUnmaskedOverheads(t *testing.T) {
	comps := []*Comparison{
		{
			FTBAROverhead: 10, HBPOverhead: 20,
			FTBARFail:   []float64{30, 50},
			HBPFail:     []float64{40, 80},
			FTBARMasked: []bool{true, false},
			HBPMasked:   []bool{true, true},
		},
		{
			FTBAROverhead: 20, HBPOverhead: 40,
			FTBARFail:   []float64{34, 70},
			HBPFail:     []float64{44, 90},
			FTBARMasked: []bool{true, false},
			HBPMasked:   []bool{false, true},
		},
	}
	pt := aggregate(1, comps)
	if pt.FTBARMasked != 0.5 || pt.HBPMasked != 0.75 {
		t.Errorf("masked fractions %g / %g, want 0.5 / 0.75", pt.FTBARMasked, pt.HBPMasked)
	}
	if pt.FTBARUnmaskedMean != 60 || pt.FTBARUnmaskedMax != 70 {
		t.Errorf("FTBAR unmasked mean/max %g/%g, want 60/70", pt.FTBARUnmaskedMean, pt.FTBARUnmaskedMax)
	}
	if pt.HBPUnmaskedMean != 44 || pt.HBPUnmaskedMax != 44 {
		t.Errorf("HBP unmasked mean/max %g/%g, want 44/44", pt.HBPUnmaskedMean, pt.HBPUnmaskedMax)
	}
	// Masked failure overhead: FTBAR proc 0 averages (30+34)/2 = 32 and
	// proc 1 never masks, so the per-processor maximum is 32.
	if pt.FTBARFailure != 32 {
		t.Errorf("FTBAR failure overhead %g, want 32", pt.FTBARFailure)
	}
}

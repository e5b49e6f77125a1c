package main

import (
	"math"
	"testing"

	"ftbar/internal/obsv"
)

// TestMetricsMatchBenchFile keeps the printed metrics and BENCHMARK.json
// in step: same names, same units, same order.
func TestMetricsMatchBenchFile(t *testing.T) {
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, file []benchFileMetric) {
		if len(defs) != len(file) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(file))
		}
		for i, d := range defs {
			if d.name != file[i].Name || d.unit != file[i].Unit {
				t.Errorf("%s %d: code has %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread definition the bounds use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestHistQuantileFromDeltas(t *testing.T) {
	// Buckets of 1, 2, 4 ms (cumulative counts): 2 observations at or
	// below 1 ms, 2 more up to 2 ms, none beyond.
	h := histSample(1e-3, []uint64{2, 4, 4})
	if got := histQuantileMs(h, 0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("p50 = %g ms, want 1", got)
	}
	if got := histQuantileMs(h, 0.75); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p75 = %g ms, want 1.5", got)
	}
}

// histSample builds a histogram sample with power-of-two bucket bounds
// from lowest (seconds) and cumulative counts.
func histSample(lowest float64, cum []uint64) obsv.Sample {
	s := obsv.Sample{Count: cum[len(cum)-1]}
	for i, c := range cum {
		s.Buckets = append(s.Buckets, obsv.BucketCount{Le: lowest * math.Pow(2, float64(i)), Count: c})
	}
	return s
}

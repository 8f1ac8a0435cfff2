package propagation_test

import (
	"testing"

	"mlink/internal/core"
	"mlink/internal/scenario"
)

// BenchmarkAblationLOSApprox grades the Eq. 10 dominant-tap LOS-power
// approximation against the simulator's oracle LOS power.
func BenchmarkAblationLOSApprox(b *testing.B) {
	s, err := scenario.Classroom(5)
	if err != nil {
		b.Fatal(err)
	}
	x, err := s.NewExtractor(7)
	if err != nil {
		b.Fatal(err)
	}
	freqs := s.Grid.Frequencies()
	var meanAbsErr float64
	for i := 0; i < b.N; i++ {
		var acc, count float64
		for p := 0; p < 20; p++ {
			f := x.Capture(nil)
			mu, err := core.MultipathFactors(f.CSI[1], s.Grid)
			if err != nil {
				b.Fatal(err)
			}
			for k := range mu {
				los, total := s.Env.OracleLOS(freqs[k], 1, nil)
				if total <= 0 {
					continue
				}
				oracle := los / total
				d := mu[k] - oracle
				if d < 0 {
					d = -d
				}
				acc += d
				count++
			}
		}
		meanAbsErr = acc / count
	}
	b.ReportMetric(meanAbsErr, "muAbsErrVsOracle")
}

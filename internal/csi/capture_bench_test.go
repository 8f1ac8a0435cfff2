package csi_test

import (
	"testing"

	"mlink/internal/body"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// BenchmarkExtractorCapture compares one full packet capture — synthesis
// plus impairments — on the naive path (fresh allocations, per-ray
// evaluation) against the cached path (CaptureInto on a pooled frame).
func BenchmarkExtractorCapture(b *testing.B) {
	s, err := scenario.Classroom(5)
	if err != nil {
		b.Fatal(err)
	}
	x, err := s.NewExtractor(3)
	if err != nil {
		b.Fatal(err)
	}
	bodies := []body.Body{body.Default(s.LinkMidpoint())}
	cases := []struct {
		name   string
		bodies []body.Body
	}{
		{"empty", nil},
		{"occupied", bodies},
	}
	for _, tc := range cases {
		b.Run("naive/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.CaptureNaive(tc.bodies)
			}
		})
		b.Run("cached/"+tc.name, func(b *testing.B) {
			f := csi.NewFrame(len(x.Env.RX.Elements), x.Grid.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := x.CaptureInto(f, tc.bodies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

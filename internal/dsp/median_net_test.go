package dsp

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math"
	"math/rand"
	"os"
	"testing"
)

var updateMedianNet = flag.Bool("update-median-net", false, "rewrite median_net.go from the network generator")

// netOp is one compare-exchange of the generated network: slots a < b
// receive min and max; minDead/maxDead mark an output no later comparator
// (and no median slot) reads, which the generator leaves out.
type netOp struct {
	a, b             int
	minDead, maxDead bool
}

// medianNetOps prunes Batcher's odd–even merge sorting network of
// medianNetLanes lanes to the comparators that the median slots
// 0…medianNetLanes/2 depend on. Walking the sorter backwards from those
// slots, a comparator touching no live slot is dropped; a kept one makes
// both its inputs live, and an output nothing later reads is marked dead.
func medianNetOps() []netOp {
	const n = medianNetLanes
	var sorter [][2]int
	for p := 1; p < n; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			for j := k % p; j+k < n; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						sorter = append(sorter, [2]int{i + j, i + j + k})
					}
				}
			}
		}
	}
	var live [n]bool
	for i := 0; i <= n/2; i++ {
		live[i] = true
	}
	var rev []netOp
	for c := len(sorter) - 1; c >= 0; c-- {
		a, b := sorter[c][0], sorter[c][1]
		if !live[a] && !live[b] {
			continue
		}
		rev = append(rev, netOp{a: a, b: b, minDead: !live[a], maxDead: !live[b]})
		live[a], live[b] = true, true
	}
	ops := make([]netOp, len(rev))
	for i, op := range rev {
		ops[len(rev)-1-i] = op
	}
	return ops
}

// medianNetSource renders the pruned network as straight-line Go.
func medianNetSource() []byte {
	const n = medianNetLanes
	ops := medianNetOps()
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by go test ./internal/dsp -run TestMedianNetGenerated -update-median-net; DO NOT EDIT.

package dsp

import "math"

// medianNetLanes is the longest row medianNet serves.
const medianNetLanes = %d

// medianNet returns the median of a NaN-free row of 1…medianNetLanes values
// with a branch-free selection network: Batcher's odd–even merge sorter,
// pruned to the %d comparators the lower-middle slots 0…%d depend on, with
// lanes past len(xs) padded with +Inf (they sort last and never reach a
// median slot). xs is only read. The builtin min/max compile without
// branches and order −0 below +0, so the result is the sorted-order median.
func medianNet(xs []float64) float64 {
	var in [medianNetLanes]float64
	n := copy(in[:], xs)
	for i := n; i < medianNetLanes; i++ {
		in[i] = math.Inf(1)
	}
`, n, len(ops), n/2)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tv%d := in[%d]\n", i, i)
	}
	for _, op := range ops {
		switch {
		case op.minDead:
			fmt.Fprintf(&b, "\tv%d = max(v%d, v%d)\n", op.b, op.a, op.b)
		case op.maxDead:
			fmt.Fprintf(&b, "\tv%d = min(v%d, v%d)\n", op.a, op.a, op.b)
		default:
			fmt.Fprintf(&b, "\tv%d, v%d = min(v%d, v%d), max(v%d, v%d)\n", op.a, op.b, op.a, op.b, op.a, op.b)
		}
	}
	fmt.Fprintf(&b, "\tmid := [...]float64{")
	for i := 0; i <= n/2; i++ {
		fmt.Fprintf(&b, "v%d, ", i)
	}
	fmt.Fprintf(&b, "}\n\tif n%%2 == 1 {\n\t\treturn mid[n/2]\n\t}\n\treturn (mid[n/2-1] + mid[n/2]) / 2\n}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		panic(err)
	}
	return src
}

// TestMedianNetGenerated keeps median_net.go in step with its generator;
// run with -update-median-net to rewrite it.
func TestMedianNetGenerated(t *testing.T) {
	want := medianNetSource()
	if *updateMedianNet {
		if err := os.WriteFile("median_net.go", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("median_net.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("median_net.go is stale: rerun with -update-median-net")
	}
}

// TestMedianNetworkMatchesSort is the selection network's oracle: for every
// row length 1…medianNetLanes (and a few longer, quickselect-only rows),
// MedianInPlace must return the full-sort median on random rows, heavy
// ties, signed zeros and infinities — and leave a network-served row
// untouched. Rows holding a NaN must take the quickselect fallback, whose
// NaN-first ordering the sort reference shares.
func TestMedianNetworkMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1, -1}
	for n := 1; n <= medianNetLanes+3; n++ {
		for trial := 0; trial < 400; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch mode := trial % 4; {
				case mode == 0:
					xs[i] = rng.NormFloat64()
				case mode == 1:
					xs[i] = float64(rng.Intn(3)) // heavy ties
				default:
					xs[i] = specials[rng.Intn(len(specials))]
				}
			}
			nan := trial%8 == 7
			if nan {
				xs[rng.Intn(n)] = math.NaN()
			}
			orig := append([]float64(nil), xs...)
			want := sortMedian(xs)
			got, err := MedianInPlace(xs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("n=%d nan=%v: MedianInPlace = %v, sort median = %v (xs=%v)", n, nan, got, want, orig)
			}
			if n <= medianNetLanes && !nan {
				for i := range xs {
					if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
						t.Fatalf("n=%d: network path reordered xs: %v → %v", n, orig, xs)
					}
				}
			}
		}
	}
}

// BenchmarkMedian30 times one 30-value median row (the CSI grid's width)
// on the network path and on quickselect, over rows the branch predictor
// cannot learn.
func BenchmarkMedian30(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 4096)
	for i := range rows {
		rows[i] = make([]float64, 30)
		for j := range rows[i] {
			rows[i][j] = rng.ExpFloat64() * rng.ExpFloat64()
		}
	}
	tmp := make([]float64, 30)
	for _, bc := range []struct {
		name string
		med  func([]float64) (float64, error)
	}{{"network", MedianInPlace}, {"quickselect", MedianQuickselect}} {
		b.Run(bc.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				copy(tmp, rows[i&4095])
				m, _ := bc.med(tmp)
				acc += m
			}
			sinkFloat = acc
		})
	}
}

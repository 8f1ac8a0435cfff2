package propagation

import (
	"math"
	"math/rand"
	"testing"

	"mlink/internal/body"
	"mlink/internal/geom"
)

// testFreqs returns a 30-subcarrier grid around 2.462 GHz (the paper's
// channel 11) without importing the channel package.
func testFreqs() []float64 {
	out := make([]float64, 30)
	for i := range out {
		out[i] = testFreq + float64(i-15)*312.5e3
	}
	return out
}

func mustPrepared(t *testing.T, e *Environment, freqs []float64) {
	t.Helper()
	if err := e.PrepareGrid(freqs); err != nil {
		t.Fatalf("prepare grid: %v", err)
	}
}

// maxDivergence compares the naive and cached paths over a body set and
// returns the largest per-entry divergence.
func maxDivergence(t *testing.T, e *Environment, freqs []float64, bodies []body.Body, sc *ResponseScratch) float64 {
	t.Helper()
	naive := e.Response(freqs, bodies)
	cached := make([][]complex128, len(naive))
	for i := range cached {
		cached[i] = make([]complex128, len(freqs))
	}
	if err := e.ResponseInto(cached, bodies, sc); err != nil {
		t.Fatalf("response into: %v", err)
	}
	var worst float64
	for i := range naive {
		for k := range naive[i] {
			d := naive[i][k] - cached[i][k]
			re, im := real(d), imag(d)
			if m := re*re + im*im; m > worst {
				worst = m
			}
		}
	}
	return math.Sqrt(worst)
}

// TestResponseIntoMatchesNaive is the cache-consistency property test: the
// cached path must match the naive per-ray evaluation to <1e-9 for empty
// rooms and for 1–3 bodies scattered around the link (the scenario-preset
// half of the property lives in internal/scenario, which owns the presets).
func TestResponseIntoMatchesNaive(t *testing.T) {
	room := mustRoom(t, 6, 8)
	room.Walls[1].Mat = Concrete
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, 0, 3)
	env := mustEnv(t, room, geom.Point{X: 1, Y: 4}, rx, 2)
	freqs := testFreqs()
	mustPrepared(t, env, freqs)
	sc := &ResponseScratch{}

	if d := maxDivergence(t, env, freqs, nil, sc); d > 1e-9 {
		t.Fatalf("empty-room divergence %v > 1e-9", d)
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nBodies := 1 + trial%3
		bodies := make([]body.Body, 0, nBodies)
		for b := 0; b < nBodies; b++ {
			p := geom.Point{X: 0.5 + rng.Float64()*5, Y: 0.5 + rng.Float64()*7}
			bb := body.Default(p)
			if b == 2 {
				// Exercise the RCS ≤ 0 echo-skip branch too.
				bb.RCS = 0
			}
			bodies = append(bodies, bb)
		}
		if d := maxDivergence(t, env, freqs, bodies, sc); d > 1e-9 {
			t.Fatalf("trial %d (%d bodies): divergence %v > 1e-9", trial, nBodies, d)
		}
	}
}

// TestResponseIntoBodyOnPath pins the worst case for the shadow fast path: a
// body standing directly on the LOS line, where every subcarrier's knife-
// edge gain differs from 1.
func TestResponseIntoBodyOnPath(t *testing.T) {
	room := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, 0, 3)
	env := mustEnv(t, room, geom.Point{X: 1, Y: 4}, rx, 2)
	freqs := testFreqs()
	mustPrepared(t, env, freqs)
	bodies := []body.Body{body.Default(geom.Point{X: 3, Y: 4})}
	if d := maxDivergence(t, env, freqs, bodies, nil); d > 1e-9 {
		t.Fatalf("on-path divergence %v > 1e-9", d)
	}
}

// TestPrepareGridErrors covers the cache's validation paths.
func TestPrepareGridErrors(t *testing.T) {
	room := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, 0, 2)
	env := mustEnv(t, room, geom.Point{X: 1, Y: 4}, rx, 1)
	if err := env.PrepareGrid(nil); err == nil {
		t.Fatal("empty grid accepted")
	}
	if err := env.PrepareGrid([]float64{2.4e9, -1}); err == nil {
		t.Fatal("negative frequency accepted")
	}
	if env.cache != nil {
		t.Fatal("failed PrepareGrid left a cache behind")
	}

	dst := [][]complex128{make([]complex128, 30), make([]complex128, 30)}
	if err := env.ResponseInto(dst, nil, nil); err == nil {
		t.Fatal("ResponseInto without PrepareGrid accepted")
	}
	freqs := testFreqs()
	mustPrepared(t, env, freqs)
	// Idempotent for the same grid: the cache pointer must not be rebuilt.
	before := env.cache
	mustPrepared(t, env, freqs)
	if env.cache != before {
		t.Fatal("PrepareGrid rebuilt an unchanged grid")
	}
	// Rebuilt for a different grid.
	mustPrepared(t, env, freqs[:10])
	if env.cache == before {
		t.Fatal("PrepareGrid kept a stale cache")
	}
	if err := env.ResponseInto(dst[:1], nil, nil); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	short := [][]complex128{make([]complex128, 5), make([]complex128, 5)}
	if err := env.ResponseInto(short, nil, nil); err == nil {
		t.Fatal("row-length mismatch accepted")
	}
}

// TestResponseIntoAllocs checks the with-bodies cached path stays
// allocation-free once the scratch has warmed up.
func TestResponseIntoAllocs(t *testing.T) {
	room := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, 0, 3)
	env := mustEnv(t, room, geom.Point{X: 1, Y: 4}, rx, 2)
	freqs := testFreqs()
	mustPrepared(t, env, freqs)
	dst := make([][]complex128, 3)
	for i := range dst {
		dst[i] = make([]complex128, len(freqs))
	}
	bodies := []body.Body{body.Default(geom.Point{X: 3, Y: 4}), body.Default(geom.Point{X: 2, Y: 5})}
	sc := &ResponseScratch{}
	if err := env.ResponseInto(dst, bodies, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := env.ResponseInto(dst, bodies, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("ResponseInto allocates %v per call, want 0", allocs)
	}
}

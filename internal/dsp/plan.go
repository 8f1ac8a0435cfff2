package dsp

import "sync"

// planCache maps transform size → *Transform. A Transform is immutable after
// NewTransform (its index map and butterfly roots are read-only; every
// per-call intermediate lives on the stack or in the caller's dst), so one
// plan per size serves every goroutine in the process. Sizes are few — the
// CSI pipeline transforms 30-point vectors — and lookups are hot, so a
// lock-free-on-read sync.Map fits, exactly like the twiddle cache beneath it.
var planCache sync.Map

// Plan returns the process-wide shared Transform of the given size, planning
// it on first use. Callers across shards and links share one plan: the
// planning cost (factorization, index map and roots) is paid once per size
// rather than once per scratch, and every user hits the same warmed plan.
func Plan(n int) *Transform {
	if v, ok := planCache.Load(n); ok {
		return v.(*Transform)
	}
	v, _ := planCache.LoadOrStore(n, NewTransform(n))
	return v.(*Transform)
}

// Package supervise decouples per-link frame ingestion from scoring.
//
// Each link gets a Supervisor: a producer goroutine pulls frames from the
// link's source into a bounded single-producer/single-consumer ring, and
// the scoring shard consumes the ring non-blockingly (Next returns
// ErrNoFrame instead of waiting). One stalled, slow, or dead source can
// therefore never stall the other links sharing its shard — the failure is
// contained to the one link, which the fusion layer then discounts or
// excludes.
//
// The supervisor also owns the link lifecycle state machine
//
//	Live → Stale → Down → Recovering → Live
//
// with heartbeat-based staleness detection (StaleAfter/DownAfter age
// bounds on the source's last activity), jittered exponential backoff
// redials for sources implementing Reconnector, and a hysteresis so a
// flapping link must re-prove itself with 25 consecutive frames (one
// window) before re-entering fusion. Lifecycle states map into adapt.Health.Lifecycle, which
// adapt.Health.Weight folds into the link's fusion vote: Stale decays the
// vote, Down/Recovering collapse it below the fusible floor.
//
// Everything on the steady-state path — ring push/pop, Next, Lifecycle,
// Status — is allocation-free; allocations happen only at Start and on the
// reconnect path.
package supervise

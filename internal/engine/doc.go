// Package engine is the concurrent multi-link monitoring engine: it manages
// a fleet of WiFi links end-to-end the way the paper's deployment story
// (§IV–§V) prescribes — assess and calibrate each link's static profile,
// then monitor every link continuously and fuse the per-link verdicts into
// one site-level presence decision.
//
// Calibration runs per link in parallel on a bounded worker pool. During
// monitoring, links are seeded round-robin onto min(Workers, links)
// long-lived shards and rebalance from there by work stealing: each shard
// keeps its resident links in a lock-free FIFO run queue, drives them one
// window at a time, and — when its own queue runs dry because its links
// retired, starved, or were stolen — takes a link whole from a busy
// sibling's queue. A link is held by exactly one shard at a time (the
// queues hand it off atomically, together with its window slab, detector,
// adapter and journal buffer), so nothing on the score path is shared
// between shards and the steady state runs with no locks, no channel
// hand-offs and zero allocations per window (journaled runs add one brief
// mutexed append per scored window, keeping the crash log in global
// emission order) — and because each link's
// windows are scored strictly in stream order by its current holder,
// per-link decision sequences are bit-identical whatever the shard count or
// migration history. A window's raw frames go straight to the detector
// (subcarrier weights, then Δs or the angular stage; no per-window phase
// sanitization, see internal/core). Sources that implement FrameRecycler
// get their frames back after each window is scored, and every calibration
// and holdout frame after calibration (the profile keeps only the
// calibration covariance partials), so steady-state monitoring allocates
// neither frames nor windows. Per-link core.Decisions are fused by a pluggable
// FusionPolicy (k-of-n, max-score, quality-weighted k-of-n); Verdict and
// Metrics (plus their reuse-friendly VerdictInto/MetricsInto/LinksInto
// variants) read atomically-published per-link snapshots, so monitoring
// dashboards can poll as fast as they like without ever blocking a scorer.
//
// With Config.Adaptation set, every calibrated link runs an adapt.Adapter:
// scored windows refresh the link's profile when confidently empty, the
// threshold follows the rolling null distribution, and a drift monitor
// flags links whose baseline has walked (Recalibrate rebuilds a quarantined
// link in place). The per-link health feeds WeightedKOfN fusion — each
// link votes with its characterized μ scaled by health, so a drifting or
// dead link cannot outvote healthy ones.
//
// Recalibration is online: while Run is active, Recalibrate (blocking) and
// RequestRecalibration (fire-and-forget, the fleet coordinator's entry
// point) post the rebuild to the link; the shard holding it claims the job
// at the link's next turn and drains its stream into a fresh calibration —
// other links never pause, the single-writer ownership of detectors and
// adapters is preserved, and the link is excluded from fusion
// (Recalibrating) until its new baseline lands. A link already retired for
// the Run (quota met, stream ended) is revived through a dedicated queue so
// late rebuilds are serviced rather than rejected. SuppressRefresh and RelockLink expose the adapter's
// fleet controls per link, and ImportLink and ApplyLinkDelta restore a
// link's full monitoring state from the versioned records fleet.Journal
// persists.
//
// With Config.Supervision set, every source moves behind a
// supervise.Supervisor: a per-link producer goroutine feeds a bounded SPSC
// ring the shard drains non-blockingly, so a stalled, slow, or dead source
// degrades only its own link instead of the shard-mates it used to advance
// in lockstep with. The supervisor's lifecycle (Live/Stale/Down/Recovering,
// with jittered-backoff redials and re-entry hysteresis) flows into each
// link's fusion weight, and SiteVerdict.Coverage reports how many links
// actually voted: a verdict with fewer fused links than registered ones is
// Degraded, and when no link can vote the verdict is Inconclusive — an
// explicit "site unobserved" answer, not an error and not a fabricated
// "absent".
//
// A fusion round is the engine's one definition of "every link has had its
// say": the detection interval a site verdict is reported per. A round
// waits on a set of links — every registered link that is not retired for
// the Run, not Recalibrating, and whose lifecycle is Unsupervised or Live
// (the links VerdictInto fuses at full weight). The rule is checked at
// every publication of a decision (Run's shards and ScoreWindow alike) and
// at every change to that set: a supervisor lifecycle transition, the start
// and end of an online recalibration, and a link's retirement. A round
// closes at the first such event after which (a) at least one link has
// published since the last close and (b) every waited-for link has. The
// supervisor's StaleAfter is thus the round's deadline: a stalled link
// stops holding rounds once it turns Stale. A site whose every link is Down
// closes no rounds; its verdict, read by polling, stays Inconclusive.
// Round ids start at 1 and continue across Runs; SiteVerdict.Round and
// Metrics.Rounds carry the latest, and Config.OnRound receives each closed
// round's verdict in order, one call at a time.
package engine

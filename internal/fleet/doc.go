// Package fleet is the cross-link coordination layer above the engine: it
// turns the paper's spatial argument — a person perturbs the few links whose
// Fresnel zones they cut, while environmental change moves many links at
// once — into a running state machine over the whole site.
//
// Each fusion tick the Coordinator digests every link's adaptation health
// and structured drift evidence (signed drift z, fast per-score z, the
// step-vs-walk jump discriminator) and classifies the fleet:
//
//	quiet        nothing drifting                → no action
//	localized    few links perturbed             → suppress refresh on them
//	                                               (don't absorb the person)
//	ambient      majority drifting, same sign    → clear quarantines, relock
//	                                               baselines, schedule a
//	                                               staggered recalibration
//	step-change  quarantined minority, site      → recalibrate just those
//	             verdict-silent long enough        links
//
// The actions run through the engine's lock-free per-link controls
// (SuppressRefresh, RelockLink, RequestRecalibration), so coordination never
// blocks the scoring shards; scheduled recalibrations execute online, one
// link at a time, on each link's owning shard while its siblings keep
// scoring.
//
// Journal makes adaptation durable, crash-safe and online: a restarted
// daemon resumes from the walked baselines (profile fingerprints,
// threshold, rolling drift windows, in the engine's versioned binary link
// records) instead of recalibrating a live site from scratch. The Journal
// rides the scoring loop — the shards frame per-window state deltas into
// one buffer that a background syncer writes out every 64 KiB and fsyncs on
// a configured cadence, and compaction folds the growing journal back into
// one .mlprofile snapshot file per link. Records
// are length-framed and CRC'd (internal/binio), so OpenJournal detects and
// truncates the torn tail a kill leaves behind and Restore rebuilds each
// link bit-for-bit from latest snapshot + latest full record + latest
// delta, bounding a crash's loss to roughly the fsync cadence. A directory
// of snapshots with no journal file restores as it stands. The
// crash-injection harness in journal_test.go holds this to the letter:
// kills at every record boundary, at byte granularity, and through an
// injected filesystem that dies mid-write must all recover to a clean
// prefix of the emitted record stream.
//
// RASID (Kosba et al.) motivates the silent-period re-estimation schedule;
// Kaltiokallio et al.'s multi-scale spatial model motivates the
// few-versus-many disambiguation.
package fleet

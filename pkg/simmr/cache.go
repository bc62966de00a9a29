package simmr

import (
	"simmr/internal/cellexec"
	"simmr/internal/rcache"
)

// Cache is the content-addressed replay result cache: a sharded,
// byte-budgeted in-memory LRU in front of an optional on-disk store.
// The engine's determinism makes it sound by construction — a key is a
// 128-bit fingerprint over (full-content trace digest, config, policy,
// engine semantics version), so it can only hit an entry computed from
// the very same inputs, and corrupted entries silently fall back to
// recompute. Share one Cache across
// Replays, sweeps, and batches; all methods are safe for concurrent
// use, and a nil *Cache disables caching everywhere it is accepted.
//
// Policies without a stable fingerprint (DynamicPriority, custom
// policies, Capacity with a caller-supplied QueueOf) bypass the cache.
// A cache hit skips the engine entirely, so observability sinks do NOT
// fire for cached cells — hit counts are surfaced in Stats, telemetry,
// and the run registry so a memoized run is never mistaken for a
// fresh simulation.
type Cache = rcache.Cache

// CacheStats snapshots a Cache's hit/miss/eviction counters.
type CacheStats = rcache.Stats

// CacheOptions configures NewCache.
type CacheOptions struct {
	// Dir enables the on-disk tier (one CRC-guarded file per entry,
	// written atomically); "" keeps the cache memory-only.
	Dir string
	// MemBytes budgets the in-memory tier; <= 0 selects the default
	// (rcache.DefaultMemBytes, 64 MiB).
	MemBytes int64
	// Telemetry, when set, receives simmr_rcache_* counter updates.
	Telemetry *Telemetry
}

// NewCache builds a replay result cache.
func NewCache(o CacheOptions) *Cache {
	opts := rcache.Options{Dir: o.Dir, MemBytes: o.MemBytes}
	if o.Telemetry != nil {
		opts.Obs = o.Telemetry
	}
	return rcache.New(opts)
}

// ReplayCached is Replay memoized through c: a hit returns the stored
// result without touching the engine (hit=true); a miss replays and
// stores. A nil cache, an unfingerprintable policy, or a corrupt entry
// all degrade to a plain Replay. On a hit cfg.Sink does not fire — no
// simulation ran.
func ReplayCached(c *Cache, cfg ReplayConfig, tr *Trace, p Policy) (res *ReplayResult, hit bool, err error) {
	return cellexec.ReplayOne(cellexec.Options{Cache: c}, cfg, tr, p)
}

package benchkit

import (
	"encoding/json"
	"os"
)

// HistoryRecord is one line of BENCH_history.jsonl — an append-only log
// of every benchreport run, bench and guard alike. Where
// BENCH_engine.json is the single mutable baseline the guard compares
// against, the history is the longitudinal record: plot events/sec over
// it to see drift that stays inside the guard's tolerance.
type HistoryRecord struct {
	Time string `json:"time"` // RFC 3339 UTC
	Mode string `json:"mode"` // "bench" (baseline rewrite) or "guard"
	Pass bool   `json:"pass"`
	// Version is the buildinfo version of the binary that produced the
	// record ("dev" outside stamped builds); `benchreport -watch` uses
	// it to name the commit range a regression entered in. Empty on
	// records predating version stamping.
	Version string `json:"version,omitempty"`
	// Host is the machine the run measured on; nil on records predating
	// host fingerprints.
	Host *Host `json:"host,omitempty"`

	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`

	// Multi-tenant indexed-scheduler replay (1000 concurrent jobs);
	// zero on runs predating the sched benchmarks.
	SchedEventsPerSec float64 `json:"sched_events_per_sec,omitempty"`
	SchedAllocsPerOp  int64   `json:"sched_allocs_per_op,omitempty"`

	// What-if branching (K=8 copy-on-write fan-out off one shared
	// prefix); zero on runs predating the fork benchmarks.
	ForkNsPerOp        float64 `json:"fork_ns_per_op,omitempty"`
	BranchEventsPerSec float64 `json:"branch_events_per_sec,omitempty"`
	BranchSpeedup      float64 `json:"branch_speedup,omitempty"`

	// Replay with the causal attribution sink attached; zero on runs
	// predating the attribution benchmark.
	AttrEventsPerSec float64 `json:"attr_events_per_sec,omitempty"`

	// Replay with a flight recorder attached — the always-on ops-plane
	// capture, which must cost zero extra allocations. Zero on runs
	// predating the flight benchmark.
	FlightEventsPerSec float64 `json:"flight_events_per_sec,omitempty"`
	FlightAllocsPerOp  int64   `json:"flight_allocs_per_op,omitempty"`

	// Columnar `.strc` trace loader vs the JSON reference loader; zero
	// on runs predating the binary trace store.
	TraceLoadJobsPerSec float64 `json:"trace_load_jobs_per_sec,omitempty"`
	TraceLoadSpeedup    float64 `json:"trace_load_speedup,omitempty"`
	TraceBytesPerJob    float64 `json:"trace_bytes_per_job,omitempty"`

	// Content-addressed replay result cache (warm-hit serving and
	// miss-path bookkeeping); zero on runs predating the cache.
	CacheHitJobsPerSec   float64 `json:"cache_hit_jobs_per_sec,omitempty"`
	CacheWarmSpeedup     float64 `json:"cache_warm_speedup,omitempty"`
	CacheColdOverheadPct float64 `json:"cache_cold_overhead_pct,omitempty"`

	// Guard runs record what they compared against.
	BaselineEventsPerSec float64 `json:"baseline_events_per_sec,omitempty"`
	BaselineAllocsPerOp  int64   `json:"baseline_allocs_per_op,omitempty"`
	Floor                float64 `json:"floor,omitempty"`
}

// AppendHistory appends rec as one JSON line to path, creating the file
// if needed.
func AppendHistory(path string, rec HistoryRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

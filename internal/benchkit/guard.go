package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"simmr/pkg/simmr"
)

// AllocTolerance is the accepted allocs-per-replay regression against
// the recorded baseline: the no-sink replay path must stay within 5% of
// BENCH_engine.json. Allocation counts come from steadyAllocs and are
// deterministic, so this is a hard bound.
const AllocTolerance = 0.05

// allocLimit converts a baseline allocation count to its guard limit:
// baseline + AllocTolerance, but never tighter than baseline + 1. The
// pooled steady states are single-digit now, and 5% of 5 is zero
// headroom.
func allocLimit(base int64) int64 {
	lim := int64(float64(base) * (1 + AllocTolerance))
	if lim < base+1 {
		lim = base + 1
	}
	return lim
}

// ThroughputFloor is the fraction of baseline events/sec below which
// the guard fails: any >10% regression is an error. It applies only
// when the baseline was recorded on the same Host — an events/sec
// figure from another machine says nothing about this one. Wall-clock
// is noisier than allocation counts, but the replay benchmark is long
// enough (hundreds of ms per op) that run-to-run jitter on an idle
// machine stays within a few percent; regenerate BENCH_engine.json via
// `make bench` when a deliberate trade-off moves the baseline.
const ThroughputFloor = 0.90

// ReplayObserved is Replay with a telemetry sink attached — the worst
// realistic always-on observability cost (every event tallied into the
// sharded metrics registry, task durations and run counters observed).
// Compare its allocs/op and events/sec against Replay for the price of
// turning observability on.
func ReplayObserved(b *testing.B) {
	tr := fixture(replayJobs)
	cfg := simmr.DefaultReplayConfig()
	cfg.Sink = simmr.NewTelemetry().EngineSink()
	var pool simmr.ReplayPool // pooled like Replay, so the delta is the sink alone
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := pool.Run(cfg, tr, simmr.NewFIFO())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// LoadBaseline reads a BENCH_engine.json produced by cmd/benchreport.
func LoadBaseline(path string) (Metrics, error) {
	var m Metrics
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("benchkit: parsing baseline %s: %w", path, err)
	}
	if m.ReplayAllocsPerOp <= 0 {
		return m, fmt.Errorf("benchkit: baseline %s has no replay_allocs_per_op", path)
	}
	return m, nil
}

// GuardReport carries one guard run's measurements alongside the
// printable summary, so callers (cmd/benchreport) can log the run to
// BENCH_history.jsonl whether or not the check passed.
type GuardReport struct {
	Host         Host
	AllocsPerOp  int64
	BytesPerOp   int64
	EventsPerSec float64

	// The multi-tenant smoke: indexed-path replay at 1000 concurrent
	// jobs, guarded when the baseline records sched_allocs_per_op.
	SchedAllocsPerOp  int64
	SchedEventsPerSec float64

	// The what-if branching smoke: K=8 fan-out throughput and its
	// speedup over independent replays, guarded when the baseline
	// records branch_speedup.
	BranchEventsPerSec float64
	BranchSpeedup      float64

	// The attribution smoke: replay with the causal attribution sink
	// attached, guarded when the baseline records attr_events_per_sec.
	AttrEventsPerSec float64

	// The flight-recorder smoke: replay with a flight recorder attached,
	// held to the SAME deterministic allocation bound as the bare replay
	// (the recorder's zero-alloc steady-state guarantee), guarded when
	// the baseline records flight_events_per_sec.
	FlightEventsPerSec float64
	FlightAllocsPerOp  int64

	// The trace-loader smoke: `.strc` decode vs JSON decode on the same
	// trace, guarded when the baseline records trace_load_speedup.
	TraceLoadJobsPerSec float64
	TraceLoadSpeedup    float64

	// The replay-result-cache smoke: warm-hit throughput and its speedup
	// over a fresh replay, plus the miss path's bookkeeping as a
	// percentage of one replay. Guarded when the baseline records
	// cache_hit_jobs_per_sec.
	CacheHitJobsPerSec   float64
	CacheWarmSpeedup     float64
	CacheColdOverheadPct float64

	Baseline Metrics
	Summary  string
}

// TraceLoadSpeedupFloor is the hard lower bound on the `.strc` loader's
// advantage over the JSON loader on the deduplicated 20000-job fixture.
// Like BranchSpeedupFloor it is structural, not a fraction of the
// baseline: both loaders run on the same host, so the ratio barely
// moves with machine speed. Recorded baselines sit far above this
// (the columnar decode skips all JSON tokenization and shares one
// arena across 300+ jobs per template); a drop below 5x means the
// decode path itself regressed — e.g. the zero-copy arena view fell
// back to per-template copies, or per-job template duplication crept
// back in.
const TraceLoadSpeedupFloor = 5.0

// CacheWarmSpeedupFloor is the hard lower bound on a warm cache hit's
// advantage over a fresh replay of the same fixture. Structural like
// the branch and trace-load floors: a hit is a memory-tier lookup plus
// a columnar decode (tens of nanoseconds per job) against a full
// discrete-event replay (microseconds per job), so the ratio barely
// moves with host speed. Recorded baselines sit orders of magnitude
// above 50x; a drop below it means the hit path started doing real
// work — decode regressed, or a "hit" quietly re-replays.
const CacheWarmSpeedupFloor = 50.0

// CacheColdOverheadMaxPct is the hard upper bound on what a cold,
// cache-enabled replay pays over an uncached one: the miss path's
// bookkeeping (trace hash, key derivation, probe, encode, store)
// measured directly and expressed as a percentage of one fresh replay.
// Structural for the same host-independence reason — both numbers come
// from the same machine.
const CacheColdOverheadMaxPct = 2.0

// BranchSpeedupFloor is the hard lower bound on BranchSet's advantage
// over independent replays (K=8, 90% branch point): the shared prefix
// alone must keep the fan-out at least twice as fast, on any host. The
// bound is structural — roughly K/(p + K(1-p)) serial work for branch
// point p — so unlike raw throughput it barely moves with machine
// speed, and 2.0 stays far below the ~4.7x the 90% point predicts.
const BranchSpeedupFloor = 2.0

// sameHost reports whether the baseline's absolute throughput can be
// held against host h. A fingerprinted baseline must match h exactly. A
// baseline recorded before fingerprints existed falls back to the CPU
// count and GOMAXPROCS it has always carried, so the host that recorded
// it keeps its throughput floors.
func sameHost(base Metrics, h Host) bool {
	if base.Host != nil {
		return *base.Host == h
	}
	return base.NumCPU == h.NumCPU && base.GoMaxProcs == h.GoMaxProcs
}

// Guard reruns the no-sink replay benchmark and fails if it regressed
// against the baseline: allocations per replay beyond AllocTolerance
// (hard, deterministic) or, on the baseline's own host, throughput
// below ThroughputFloor (loose, wall-clock). The returned summary is
// printable either way.
func Guard(baselinePath string) (string, error) {
	rep, err := GuardWithFloor(baselinePath, ThroughputFloor)
	return rep.Summary, err
}

// GuardWithFloor is Guard with an explicit throughput floor (a fraction
// of the baseline's events/sec). The allocation bound is deterministic
// and stays at AllocTolerance regardless; the floor is the knob for
// noisy machines — CI runners use a looser one than the 0.90 default
// (see `make bench-guard-ci`). floor <= 0 skips the throughput check,
// and so does a baseline from another host (see sameHost): there the
// ratio bounds — branch, trace-load and cache speedups, each measured
// against a reference run on this host — are all that is checked.
func GuardWithFloor(baselinePath string, floor float64) (GuardReport, error) {
	base, err := LoadBaseline(baselinePath)
	if err != nil {
		return GuardReport{}, err
	}
	rep := GuardReport{Host: CurrentHost(), Baseline: base}
	same := sameHost(base, rep.Host)
	if !same {
		floor = 0
	}
	if rep.AllocsPerOp, err = steadyAllocs(replayFixture); err != nil {
		return rep, err
	}
	bench := testing.Benchmark(Replay)
	rep.BytesPerOp = bench.AllocedBytesPerOp()
	rep.EventsPerSec = bench.Extra["events/sec"]

	replayAllocLimit := allocLimit(base.ReplayAllocsPerOp)
	rep.Summary = fmt.Sprintf("replay allocs/op %d (baseline %d, limit %d), %.0f events/sec (baseline %.0f, floor %.0f)",
		rep.AllocsPerOp, base.ReplayAllocsPerOp, replayAllocLimit,
		rep.EventsPerSec, base.EventsPerSec, base.EventsPerSec*floor)
	if !same {
		baseHost := fmt.Sprintf("unfingerprinted, %d CPU, GOMAXPROCS %d", base.NumCPU, base.GoMaxProcs)
		if base.Host != nil {
			baseHost = base.Host.String()
		}
		rep.Summary += fmt.Sprintf("; absolute throughput not compared (baseline host: %s; this host: %s)", baseHost, rep.Host)
	}

	// Multi-tenant smoke: rerun the indexed 1000-job replay and hold the
	// allocate() fast path to the same deterministic 5% allocation bound.
	// Skipped against baselines that predate the sched metrics.
	var schedLimit int64
	if base.SchedAllocsPerOp > 0 {
		if rep.SchedAllocsPerOp, err = steadyAllocs(indexedMultiTenant); err != nil {
			return rep, err
		}
		sb := testing.Benchmark(func(b *testing.B) { MultiTenant(b, true) })
		rep.SchedEventsPerSec = sb.Extra["events/sec"]
		schedLimit = allocLimit(base.SchedAllocsPerOp)
		rep.Summary += fmt.Sprintf("; sched allocs/op %d (baseline %d, limit %d), %.0f events/sec (baseline %.0f)",
			rep.SchedAllocsPerOp, base.SchedAllocsPerOp, schedLimit,
			rep.SchedEventsPerSec, base.SchedEventsPerSec)
	}
	// A baseline may legitimately lack the parallel sweep numbers: on
	// single-CPU hosts Collect skips that run and the fields are omitted
	// from the JSON entirely. Absent (zero after unmarshal) means "never
	// measured", not "measured as zero" — either way there is no sweep
	// ratio to hold this run to.
	if base.SweepSpeedupSkipped || base.NumCPU == 1 || base.SweepSpeedup == 0 {
		rep.Summary += "; sweep speedup floor skipped (single-CPU baseline)"
	}

	// What-if branching smoke: when the baseline records a branch
	// speedup, rerun the K=8 fan-out against its independent-replay
	// reference and hold the ratio to the structural floor. This is a
	// fixed bound, not a fraction of the baseline — the shared-prefix
	// advantage is machine-independent, so a drop below 2x means the
	// fork path itself broke (e.g. forks silently re-running the
	// prefix), never that the host got slower.
	if base.BranchSpeedup > 0 {
		bs := testing.Benchmark(BranchSet)
		ind := testing.Benchmark(BranchIndependent)
		rep.BranchEventsPerSec = bs.Extra["events/sec"]
		if bsSec := bs.T.Seconds() / float64(bs.N); bsSec > 0 {
			rep.BranchSpeedup = (ind.T.Seconds() / float64(ind.N)) / bsSec
		}
		rep.Summary += fmt.Sprintf("; branch speedup %.2fx (baseline %.2fx, floor %.1fx), %.0f branch events/sec",
			rep.BranchSpeedup, base.BranchSpeedup, BranchSpeedupFloor, rep.BranchEventsPerSec)
	}

	// Attribution smoke: the no-sink bound above already proves that
	// explanation costs nothing when off (the nil-sink path's allocation
	// count is the very thing replayAllocLimit holds); this reruns the replay
	// with the attribution sink attached to record — and loosely floor —
	// what explanation costs when asked for. Skipped against baselines
	// that predate the attribution benchmark.
	if base.AttrEventsPerSec > 0 {
		ab := testing.Benchmark(Attr)
		rep.AttrEventsPerSec = ab.Extra["events/sec"]
		rep.Summary += fmt.Sprintf("; attr %.0f events/sec (baseline %.0f)",
			rep.AttrEventsPerSec, base.AttrEventsPerSec)
	}

	// Flight-recorder smoke: rerun the replay with a flight recorder
	// attached and hold it to the SAME allocation limit as the bare
	// replay — not a separate baseline. The recorder's whole contract is
	// that the always-on capture is free (ring writes into preallocated
	// storage); if attaching it costs even a handful of allocs per
	// replay, that contract broke, regardless of what an inflated
	// flight-specific baseline might have absorbed. Skipped against
	// baselines that predate the flight benchmark.
	if base.FlightEventsPerSec > 0 {
		if rep.FlightAllocsPerOp, err = steadyAllocs(flightFixture); err != nil {
			return rep, err
		}
		fb := testing.Benchmark(FlightReplay)
		rep.FlightEventsPerSec = fb.Extra["events/sec"]
		rep.Summary += fmt.Sprintf("; flight allocs/op %d (replay limit %d), %.0f events/sec (baseline %.0f)",
			rep.FlightAllocsPerOp, replayAllocLimit, rep.FlightEventsPerSec, base.FlightEventsPerSec)
	}

	// Trace-loader smoke: when the baseline records a load speedup,
	// rerun the `.strc` and JSON loaders on the shared fixture and hold
	// their ratio to the structural floor. A fixed bound, not a fraction
	// of the baseline, for the same reason as the branch floor: the two
	// loaders share the host, so the ratio is machine-independent.
	if base.TraceLoadSpeedup > 0 {
		lb := testing.Benchmark(TraceLoadBin)
		lj := testing.Benchmark(TraceLoadJSON)
		rep.TraceLoadJobsPerSec = lb.Extra["jobs/sec"]
		if js := lj.Extra["jobs/sec"]; js > 0 {
			rep.TraceLoadSpeedup = rep.TraceLoadJobsPerSec / js
		}
		rep.Summary += fmt.Sprintf("; trace load %.0f jobs/sec, %.1fx over JSON (baseline %.1fx, floor %.0fx)",
			rep.TraceLoadJobsPerSec, rep.TraceLoadSpeedup, base.TraceLoadSpeedup, TraceLoadSpeedupFloor)
	}

	// Replay-result-cache smoke: when the baseline records the cache
	// metrics, rerun the warm-hit and miss-work benchmarks and hold both
	// ends of the bargain — hits at least CacheWarmSpeedupFloor faster
	// than a fresh replay, misses at most CacheColdOverheadMaxPct of
	// one. Both are structural bounds (hit, miss, and replay all run on
	// this host), so like the branch floor they never need re-baselining
	// for a slower machine. Skipped against baselines that predate the
	// cache benchmarks.
	if base.CacheHitJobsPerSec > 0 {
		cw := testing.Benchmark(CacheWarm)
		rep.CacheHitJobsPerSec = cw.Extra["jobs/sec"]
		replaySec := bench.T.Seconds() / float64(bench.N)
		if warmSec := cw.T.Seconds() / float64(cw.N); warmSec > 0 {
			rep.CacheWarmSpeedup = replaySec / warmSec
		}
		cm := testing.Benchmark(CacheMissWork)
		if replaySec > 0 {
			rep.CacheColdOverheadPct = (cm.T.Seconds() / float64(cm.N)) / replaySec * 100
		}
		rep.Summary += fmt.Sprintf("; cache warm %.0f jobs/sec, %.0fx over replay (floor %.0fx), cold overhead %.3f%% (max %.1f%%)",
			rep.CacheHitJobsPerSec, rep.CacheWarmSpeedup, CacheWarmSpeedupFloor,
			rep.CacheColdOverheadPct, CacheColdOverheadMaxPct)
	}

	if rep.AllocsPerOp > replayAllocLimit {
		return rep, fmt.Errorf("benchkit: replay allocations regressed >%.0f%%: %d/op vs baseline %d/op",
			AllocTolerance*100, rep.AllocsPerOp, base.ReplayAllocsPerOp)
	}
	if floor > 0 && rep.EventsPerSec < base.EventsPerSec*floor {
		return rep, fmt.Errorf("benchkit: replay throughput collapsed: %.0f events/sec vs baseline %.0f (floor %.2f)",
			rep.EventsPerSec, base.EventsPerSec, floor)
	}
	if schedLimit > 0 && rep.SchedAllocsPerOp > schedLimit {
		return rep, fmt.Errorf("benchkit: indexed allocate() allocations regressed >%.0f%%: %d/op vs baseline %d/op",
			AllocTolerance*100, rep.SchedAllocsPerOp, base.SchedAllocsPerOp)
	}
	if schedLimit > 0 && floor > 0 && base.SchedEventsPerSec > 0 && rep.SchedEventsPerSec < base.SchedEventsPerSec*floor {
		return rep, fmt.Errorf("benchkit: indexed multi-tenant throughput collapsed: %.0f events/sec vs baseline %.0f (floor %.2f)",
			rep.SchedEventsPerSec, base.SchedEventsPerSec, floor)
	}
	if base.BranchSpeedup > 0 && rep.BranchSpeedup < BranchSpeedupFloor {
		return rep, fmt.Errorf("benchkit: what-if branching lost its shared-prefix advantage: %.2fx over independent replays vs floor %.1fx (baseline %.2fx)",
			rep.BranchSpeedup, BranchSpeedupFloor, base.BranchSpeedup)
	}
	if base.AttrEventsPerSec > 0 && floor > 0 && rep.AttrEventsPerSec < base.AttrEventsPerSec*floor {
		return rep, fmt.Errorf("benchkit: attributed replay throughput collapsed: %.0f events/sec vs baseline %.0f (floor %.2f)",
			rep.AttrEventsPerSec, base.AttrEventsPerSec, floor)
	}
	if base.FlightEventsPerSec > 0 && rep.FlightAllocsPerOp > replayAllocLimit {
		return rep, fmt.Errorf("benchkit: flight recorder lost its zero-alloc steady state: %d allocs/op vs bare-replay limit %d",
			rep.FlightAllocsPerOp, replayAllocLimit)
	}
	if base.FlightEventsPerSec > 0 && floor > 0 && rep.FlightEventsPerSec < base.FlightEventsPerSec*floor {
		return rep, fmt.Errorf("benchkit: flight-recorded replay throughput collapsed: %.0f events/sec vs baseline %.0f (floor %.2f)",
			rep.FlightEventsPerSec, base.FlightEventsPerSec, floor)
	}
	if base.TraceLoadSpeedup > 0 && rep.TraceLoadSpeedup < TraceLoadSpeedupFloor {
		return rep, fmt.Errorf("benchkit: packed trace loader lost its advantage over JSON: %.1fx vs floor %.0fx (baseline %.1fx)",
			rep.TraceLoadSpeedup, TraceLoadSpeedupFloor, base.TraceLoadSpeedup)
	}
	if base.CacheHitJobsPerSec > 0 && rep.CacheWarmSpeedup < CacheWarmSpeedupFloor {
		return rep, fmt.Errorf("benchkit: warm cache hit lost its advantage over fresh replay: %.1fx vs floor %.0fx (baseline %.1fx)",
			rep.CacheWarmSpeedup, CacheWarmSpeedupFloor, base.CacheWarmSpeedup)
	}
	if base.CacheHitJobsPerSec > 0 && rep.CacheColdOverheadPct > CacheColdOverheadMaxPct {
		return rep, fmt.Errorf("benchkit: cache miss bookkeeping exceeds its budget: %.3f%% of a replay vs max %.1f%% (baseline %.3f%%)",
			rep.CacheColdOverheadPct, CacheColdOverheadMaxPct, base.CacheColdOverheadPct)
	}
	return rep, nil
}

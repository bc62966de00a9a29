// Package benchkit holds the engine microbenchmark bodies shared by the
// top-level bench harness (bench_test.go) and cmd/benchreport. Keeping
// one body per benchmark guarantees that the numbers in
// BENCH_engine.json are produced by exactly the code that `go test
// -bench` runs interactively.
package benchkit

import (
	"math/rand"
	"runtime"
	"testing"

	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/pkg/simmr"
)

// replayJobs sizes the replay-throughput fixture; sweepJobs the capacity
// sweep one (smaller, because a sweep replays it once per grid cell).
// multiTenantJobs sizes the indexed-scheduler fixture. All jobs arrive
// in a burst, then the active set drains as deadlines complete, so a
// 3000-job trace sustains well over 1000 concurrently active jobs for
// most of the replay — the scale where per-slot policy scans dominate
// replay cost (the acceptance bar is >= 3x indexed-over-scan at 1k+
// concurrent jobs).
const (
	replayJobs      = 200
	sweepJobs       = 40
	multiTenantJobs = 3000
)

// sweepSlotCounts is the square capacity-sweep grid. Sixteen cells keep
// the worker pool load-balanced well past typical core counts, so the
// parallel/serial wall-time ratio approaches GOMAXPROCS on multicore
// hosts.
var sweepSlotCounts = []int{4, 8, 12, 16, 24, 32, 40, 48, 64, 80, 96, 112, 128, 160, 192, 256}

// fixture builds the deterministic production-style trace the
// benchmarks replay. The trace is read-only to the engine, so one
// instance is shared across all iterations and all sweep cells.
func fixture(jobs int) *simmr.Trace {
	rng := rand.New(rand.NewSource(1))
	tr, err := synth.ProductionTrace(jobs, rng)
	if err != nil {
		panic(err) // statically valid generator parameters
	}
	return tr
}

// replayOp is one primed, repeatable replay; it reports the events the
// replay fired. The throughput benchmarks loop over one, and the guard
// counts its steady-state allocations with steadyAllocs.
type replayOp func() (events uint64, err error)

// pooledReplay returns a replayOp replaying (cfg, tr, policy) through
// one ReplayPool — the engine-reuse path CapacitySweep and ReplayBatch
// use — primed once, so cold engine construction and the trace's
// one-shot Validate memo stay out of every measurement.
func pooledReplay(cfg simmr.ReplayConfig, tr *simmr.Trace, policy simmr.Policy) (replayOp, error) {
	var pool simmr.ReplayPool
	op := func() (uint64, error) {
		res, err := pool.Run(cfg, tr, policy)
		if err != nil {
			return 0, err
		}
		return res.Events, nil
	}
	if _, err := op(); err != nil {
		return nil, err
	}
	return op, nil
}

// runReplays is the throughput benchmark loop: b.N replays of the op
// mk builds, reported as events/sec and (via ReportAllocs) allocs/op.
func runReplays(b *testing.B, mk func() (replayOp, error)) {
	op, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		n, err := op()
		if err != nil {
			b.Fatal(err)
		}
		events += n
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// Steady-state allocation counting: allocWarmup replays, then the mean
// over allocRuns more. A pooled engine keeps allocating a little over
// its first several replays before it settles (up to ~30 allocations
// per replay over the first eight on the multi-tenant fixture), so a
// fixed warm-up well past that, and a fixed run count, make the count
// a property of the code alone — not of b.N, which the testing package
// picks from the host's speed.
const (
	allocWarmup = 20
	allocRuns   = 10
)

// steadyAllocs returns the steady-state allocations per replay of the
// op mk builds. It runs at GOMAXPROCS=1 throughout, as
// testing.AllocsPerRun measures: changing GOMAXPROCS between warm-up
// and measurement could strand the pooled engine on another P and
// rebuild it cold inside the count.
func steadyAllocs(mk func() (replayOp, error)) (int64, error) {
	op, err := mk()
	if err != nil {
		return 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < allocWarmup; i++ {
		if _, err := op(); err != nil {
			return 0, err
		}
	}
	var runErr error
	n := testing.AllocsPerRun(allocRuns, func() {
		if _, err := op(); err != nil {
			runErr = err
		}
	})
	return int64(n), runErr
}

// replayFixture is the replay-throughput op: the 200-job production
// fixture under FIFO, no sink.
func replayFixture() (replayOp, error) {
	return pooledReplay(simmr.DefaultReplayConfig(), fixture(replayJobs), simmr.NewFIFO())
}

// Replay measures whole-trace replay on a shared trace: events/sec
// throughput and allocs/op. After the priming replay the engine's jobs
// slab and the queue's event slab are fully recycled, so allocs/op
// reflects the pooled steady state, not cold construction.
func Replay(b *testing.B) { runReplays(b, replayFixture) }

// flightFixture is replayFixture with a flight recorder attached — the
// ops plane's always-on post-mortem capture. The recorder is built once
// and reused across pooled runs (its documented engine-reuse contract),
// so every event lands in the preallocated ring and allocations per
// replay must equal the plain pooled replay's: the guard holds it to
// the very same bound as replayFixture, proving the recorder's
// zero-alloc steady state rather than asserting it.
func flightFixture() (replayOp, error) {
	cfg := simmr.DefaultReplayConfig()
	cfg.Sink = obs.NewFlightRecorder(0) // 4096-event default ring
	return pooledReplay(cfg, fixture(replayJobs), simmr.NewFIFO())
}

// FlightReplay is Replay over flightFixture.
func FlightReplay(b *testing.B) { runReplays(b, flightFixture) }

// multiTenantFixture builds the 1000-job dense-burst trace: nearly all
// jobs are active at once for most of the replay, so allocation rounds
// see a four-digit active queue. Shared read-only like fixture's.
func multiTenantFixture() *simmr.Trace {
	rng := rand.New(rand.NewSource(2))
	tr, err := synth.MultiTenantTrace(multiTenantJobs, rng)
	if err != nil {
		panic(err) // statically valid generator parameters
	}
	return tr
}

// multiTenantPolicy picks the benchmark policy: MaxEDF, the
// deadline-ordered middle of the policy family (FIFO's index is
// cheaper, Capacity's dearer). indexed selects the BatchPolicy fast
// path; the policy instance is reused across pool runs — engine Reset
// re-arms its index via ResetQueue, so steady-state allocs/op reflect
// reuse, exactly like the engine pool itself.
func multiTenantPolicy(indexed bool) simmr.Policy {
	if indexed {
		return sched.Indexed(sched.MaxEDF{})
	}
	return sched.MaxEDF{}
}

// multiTenantOp is the replay at 1000 concurrently active jobs on
// the scan or indexed scheduling path. The two are byte-identical in
// outcome (the engine differential suite proves it); only events/sec
// and allocations differ. The indexed path's steady-state allocations
// are the allocate() regression guard's sched_allocs_per_op.
func multiTenantOp(indexed bool) (replayOp, error) {
	return pooledReplay(simmr.DefaultReplayConfig(), multiTenantFixture(), multiTenantPolicy(indexed))
}

// indexedMultiTenant is multiTenantOp(true), the op behind
// sched_allocs_per_op.
func indexedMultiTenant() (replayOp, error) { return multiTenantOp(true) }

// MultiTenant measures multiTenantOp's throughput.
func MultiTenant(b *testing.B, indexed bool) {
	runReplays(b, func() (replayOp, error) { return multiTenantOp(indexed) })
}

// Preempt is MultiTenant with map-task preemption enabled: every
// deadline arrival hunts latest-deadline victims, pinning the cost of
// preemptFor at 1k concurrent jobs. Victim selection uses the engine's
// preemption index on both paths; indexed additionally batches slot
// allocation.
func Preempt(b *testing.B, indexed bool) {
	runReplays(b, func() (replayOp, error) {
		cfg := simmr.DefaultReplayConfig()
		cfg.PreemptMapTasks = true
		return pooledReplay(cfg, multiTenantFixture(), multiTenantPolicy(indexed))
	})
}

// Attr measures whole-trace replay with a causal attribution sink
// attached — the full observability stack the `simmr trace explain`
// path pays: every event classified into a wait phase, blame hand-offs
// tracked, the critical-path graph grown. The sink is single-run, so
// unlike ReplayObserved each iteration builds a fresh one; Report() is
// deliberately outside the loop (report rendering is a cold path).
// Compare events/sec against Replay for the price of explanation.
func Attr(b *testing.B) {
	tr := fixture(replayJobs)
	cfg := simmr.DefaultReplayConfig()
	var pool simmr.ReplayPool
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Sink = simmr.NewAttrSink(simmr.AttrOptions{
			MapSlots: cfg.MapSlots, ReduceSlots: cfg.ReduceSlots, Trace: tr,
		})
		res, err := pool.Run(cfg, tr, simmr.NewFIFO())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// Sweep measures a 16-cell square capacity sweep with the given worker
// count (1 = serial reference, 0 = one worker per CPU). Cells share one
// trace; results are byte-identical across worker counts.
func Sweep(b *testing.B, workers int) {
	tr := fixture(sweepJobs)
	cfg := simmr.SweepConfig{MapSlotCounts: sweepSlotCounts, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmr.CapacitySweep(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Metrics summarizes one Collect run; cmd/benchreport serializes it as
// BENCH_engine.json.
type Metrics struct {
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Host fingerprints the machine the baseline was measured on; the
	// guard compares absolute throughput only on an equal Host. Absent
	// on baselines recorded before fingerprinting, which therefore only
	// hold their allocation and ratio bounds.
	Host         *Host   `json:"host,omitempty"`
	EventsPerSec float64 `json:"events_per_sec"`
	// The *AllocsPerOp counts are steady-state allocations per replay
	// from steadyAllocs (fixed warm-up and run count), not the
	// benchmark's b.N-dependent allocs/op column.
	ReplayAllocsPerOp    int64   `json:"replay_allocs_per_op"`
	ReplayBytesPerOp     int64   `json:"replay_bytes_per_op"`
	SweepSerialSeconds   float64 `json:"sweep_serial_seconds"`
	SweepParallelSeconds float64 `json:"sweep_parallel_seconds,omitempty"`
	// SweepSpeedup is serial / parallel wall time for the same grid; it
	// approaches NumCPU on unloaded multicore hosts. On a single-CPU
	// host the ratio is pure scheduling noise, so Collect skips the
	// parallel run entirely and sets SweepSpeedupSkipped instead of
	// recording a meaningless sub-1.0 value. Both parallel fields are
	// omitted (not zero) from the JSON on such baselines, so consumers
	// can tell "never measured" from "measured as zero".
	SweepSpeedup        float64 `json:"sweep_speedup,omitempty"`
	SweepSpeedupSkipped bool    `json:"sweep_speedup_skipped,omitempty"`

	// The multi-tenant scheduling pair: replay throughput at 1000
	// concurrently active jobs on the indexed fast path
	// (sched_events_per_sec) versus the reference per-slot scan
	// (sched_scan_events_per_sec), and their ratio. SchedAllocsPerOp is
	// the indexed path's steady-state allocations per replay — the
	// allocate() regression guard's baseline. PreemptEventsPerSec is the
	// same workload with map-task preemption on (indexed victim lookup).
	SchedEventsPerSec     float64 `json:"sched_events_per_sec"`
	SchedScanEventsPerSec float64 `json:"sched_scan_events_per_sec"`
	SchedSpeedup          float64 `json:"sched_speedup"`
	SchedAllocsPerOp      int64   `json:"sched_allocs_per_op"`
	PreemptEventsPerSec   float64 `json:"preempt_events_per_sec"`

	// The what-if branching trio: ForkNsPerOp is the pure cost of one
	// copy-on-write ForkInto off a sealed 90% snapshot (queue clone plus
	// constant bookkeeping, all job chunks still shared);
	// BranchEventsPerSec is the K=8 fan-out's branch-suffix throughput;
	// BranchSpeedup is eight independent full replays' wall time over
	// one BranchSet answering the same eight questions — the shared
	// prefix should make this >= 2x even on one CPU (the guard's floor).
	ForkNsPerOp        float64 `json:"fork_ns_per_op"`
	BranchEventsPerSec float64 `json:"branch_events_per_sec"`
	BranchSpeedup      float64 `json:"branch_speedup"`

	// AttrEventsPerSec is replay throughput with the causal attribution
	// sink attached (fresh sink per replay, report rendering excluded) —
	// the price of `simmr trace explain`, to be read against
	// EventsPerSec. The nil-sink path is what the guard holds to its
	// allocation bound; attribution is pay-when-you-ask by design.
	AttrEventsPerSec float64 `json:"attr_events_per_sec"`

	// FlightEventsPerSec / FlightAllocsPerOp are replay throughput and
	// steady-state allocations with a flight recorder attached as the
	// sink. Unlike attribution, the recorder is meant to fly on every
	// production run, so the guard holds FlightAllocsPerOp to the same
	// deterministic bound as the bare replay: the ring write must be
	// allocation-free.
	FlightEventsPerSec float64 `json:"flight_events_per_sec"`
	FlightAllocsPerOp  int64   `json:"flight_allocs_per_op"`

	// The trace-loader pair: full-decode jobs/sec for the columnar
	// `.strc` store (trace_load_jobs_per_sec) versus the reference JSON
	// loader (trace_json_load_jobs_per_sec) on the identical 20000-job
	// deduplicated trace, their ratio, and the packed image's bytes per
	// job. The guard holds the ratio to TraceLoadSpeedupFloor — a
	// structural bound like BranchSpeedup's, since both loaders run on
	// the same host.
	TraceLoadJobsPerSec     float64 `json:"trace_load_jobs_per_sec"`
	TraceJSONLoadJobsPerSec float64 `json:"trace_json_load_jobs_per_sec"`
	TraceLoadSpeedup        float64 `json:"trace_load_speedup"`
	TraceBytesPerJob        float64 `json:"trace_bytes_per_job"`

	// The replay-result-cache pair. CacheHitJobsPerSec is warm-hit
	// serving throughput (key + memory-tier lookup + columnar decode,
	// whole results per unit); CacheWarmSpeedup is the fresh replay's
	// per-op wall time over the warm hit's — the guard holds it to
	// CacheWarmSpeedupFloor. CacheColdOverheadPct is the miss-path
	// bookkeeping (hash, key, probe, encode, store) as a percentage of
	// one fresh replay — what a cold cache-enabled sweep pays over an
	// uncached one, bounded by CacheColdOverheadMaxPct.
	CacheHitJobsPerSec   float64 `json:"cache_hit_jobs_per_sec"`
	CacheWarmSpeedup     float64 `json:"cache_warm_speedup"`
	CacheColdOverheadPct float64 `json:"cache_cold_overhead_pct"`

	GeneratedAt string `json:"generated_at,omitempty"`
}

// Collect runs the engine benchmarks (replay, multi-tenant scheduling,
// what-if branching, capacity sweeps) through testing.Benchmark and
// condenses their results, stamped with the host's fingerprint; the
// allocation counts come from steadyAllocs. The sweep pair is pinned
// explicitly —
// GOMAXPROCS=1 for the serial reference, GOMAXPROCS=NumCPU for the
// parallel run — so the recorded speedup measures the worker pool, not
// whatever GOMAXPROCS the harness happened to inherit.
func Collect() (Metrics, error) {
	host := CurrentHost()
	m := Metrics{GoMaxProcs: host.GoMaxProcs, NumCPU: host.NumCPU, Host: &host}
	var err error
	if m.ReplayAllocsPerOp, err = steadyAllocs(replayFixture); err != nil {
		return m, err
	}
	if m.SchedAllocsPerOp, err = steadyAllocs(indexedMultiTenant); err != nil {
		return m, err
	}
	if m.FlightAllocsPerOp, err = steadyAllocs(flightFixture); err != nil {
		return m, err
	}

	rep := testing.Benchmark(Replay)
	m.EventsPerSec = rep.Extra["events/sec"]
	m.ReplayBytesPerOp = rep.AllocedBytesPerOp()

	scan := testing.Benchmark(func(b *testing.B) { MultiTenant(b, false) })
	idx := testing.Benchmark(func(b *testing.B) { MultiTenant(b, true) })
	m.SchedScanEventsPerSec = scan.Extra["events/sec"]
	m.SchedEventsPerSec = idx.Extra["events/sec"]
	if m.SchedScanEventsPerSec > 0 {
		m.SchedSpeedup = m.SchedEventsPerSec / m.SchedScanEventsPerSec
	}
	pre := testing.Benchmark(func(b *testing.B) { Preempt(b, true) })
	m.PreemptEventsPerSec = pre.Extra["events/sec"]

	at := testing.Benchmark(Attr)
	m.AttrEventsPerSec = at.Extra["events/sec"]

	fl := testing.Benchmark(FlightReplay)
	m.FlightEventsPerSec = fl.Extra["events/sec"]

	binLoad := testing.Benchmark(TraceLoadBin)
	jsonLoad := testing.Benchmark(TraceLoadJSON)
	m.TraceLoadJobsPerSec = binLoad.Extra["jobs/sec"]
	m.TraceJSONLoadJobsPerSec = jsonLoad.Extra["jobs/sec"]
	if m.TraceJSONLoadJobsPerSec > 0 {
		m.TraceLoadSpeedup = m.TraceLoadJobsPerSec / m.TraceJSONLoadJobsPerSec
	}
	if fx, err := traceLoadOnce(); err == nil {
		m.TraceBytesPerJob = float64(len(fx.bin)) / float64(traceLoadJobs)
	}

	replaySec := rep.T.Seconds() / float64(rep.N)
	cw := testing.Benchmark(CacheWarm)
	m.CacheHitJobsPerSec = cw.Extra["jobs/sec"]
	if warmSec := cw.T.Seconds() / float64(cw.N); warmSec > 0 {
		m.CacheWarmSpeedup = replaySec / warmSec
	}
	// Cold overhead is measured directly as miss-path work over one
	// fresh replay, not by subtracting two full replay timings — the
	// difference of two noisy wall-clock numbers would swamp a 2% bound.
	cm := testing.Benchmark(CacheMissWork)
	if missSec := cm.T.Seconds() / float64(cm.N); replaySec > 0 {
		m.CacheColdOverheadPct = missSec / replaySec * 100
	}

	// The what-if branching trio runs on every host, single-CPU
	// included: BranchSpeedup comes from the shared prefix, not from
	// parallelism, so it is meaningful (and guarded) even at one worker.
	fork := testing.Benchmark(Fork)
	m.ForkNsPerOp = float64(fork.T.Nanoseconds()) / float64(fork.N)
	bs := testing.Benchmark(BranchSet)
	m.BranchEventsPerSec = bs.Extra["events/sec"]
	ind := testing.Benchmark(BranchIndependent)
	bsSec := bs.T.Seconds() / float64(bs.N)
	indSec := ind.T.Seconds() / float64(ind.N)
	if bsSec > 0 {
		m.BranchSpeedup = indSec / bsSec
	}

	serial := testing.Benchmark(func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		Sweep(b, 1)
	})
	m.SweepSerialSeconds = serial.T.Seconds() / float64(serial.N)
	if m.NumCPU == 1 {
		// A parallel/serial ratio on one CPU measures goroutine context
		// switching, not the worker pool; skip it rather than record
		// sub-1.0 noise that a guard would then have to special-case.
		m.SweepSpeedupSkipped = true
		return m, nil
	}
	par := testing.Benchmark(func(b *testing.B) {
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
		Sweep(b, 0)
	})
	m.SweepParallelSeconds = par.T.Seconds() / float64(par.N)
	if m.SweepParallelSeconds > 0 {
		m.SweepSpeedup = m.SweepSerialSeconds / m.SweepParallelSeconds
	}
	return m, nil
}

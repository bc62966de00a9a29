// SimMetrics is the SimMR metric set over a sharded Registry, and
// EngineSink is the obs.Sink that feeds it. Together they aggregate a
// sweep: instead of N engines funneling every event through one mutex,
// each engine's sink writes its own registry shard with plain atomics
// and the shards merge at scrape time.

package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"simmr/internal/attr"
	"simmr/internal/obs"
)

// Bucket boundaries, in seconds unless noted. Fixed at registration so
// the exposition format is stable (the golden test pins them).
var (
	// TaskDurationBuckets covers replayed task durations: testbed map
	// tasks run tens of seconds, reduces up to tens of minutes.
	TaskDurationBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	// CompletionBuckets covers job completion times and makespans.
	CompletionBuckets = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}
	// WallBuckets covers real (not simulated) elapsed time: replay wall
	// time and lifecycle spans, from sub-millisecond to tens of seconds.
	WallBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	// RateBuckets covers per-replay events/sec throughput.
	RateBuckets = []float64{1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7}
	// QueueBuckets covers the event queue's peak pending population.
	QueueBuckets = []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	// WaitBuckets covers per-job attributed wait times by phase; the
	// low end resolves near-zero waits (most jobs on an idle cluster).
	WaitBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
)

// SpanStages are the replay-lifecycle stages timed by Span, in
// exposition order: trace load, engine build/reset, the replay itself,
// and report/output writing.
var SpanStages = []string{"load", "build", "run", "report"}

// SimMetrics bundles the full SimMR metric set. Build one per process
// (or per sweep) with NewSimMetrics, attach EngineSink() to each
// engine, and serve Registry() via Handler. All methods are safe for
// concurrent use; a nil *SimMetrics is valid and inert, so callers
// guard instrumentation with a single nil check.
type SimMetrics struct {
	reg *Registry

	mapTaskDur    *Histogram
	reduceTaskDur *Histogram
	jobCompletion *Histogram
	queueHigh     *Histogram
	queueDepth    *Histogram
	replayWall    *Histogram
	replayRate    *Histogram
	spans         []*Histogram // by SpanStages index
	jobWait       []*Histogram // by attr.WaitPhases index
	missCause     []*Counter   // by attr.Phase

	eventsTotal  *Counter
	eventsByKind []*Counter // by obs.Kind
	jobsTotal    *Counter
	replaysTotal *Counter
	poolGets     [2]*Counter // [miss, hit]
	preemptions  *Counter
	fillerPatch  *Counter
	mapAllocs    *Counter
	reduceAllocs *Counter

	forksTotal      *Counter
	forkBytesCopied *Counter
	forkBytesShared *Counter

	rcacheHits      [2]*Counter // by serving tier: [mem, disk]
	rcacheMisses    *Counter
	rcacheEvictions *Counter
	rcacheBytes     atomic.Int64 // resident bytes, exposed as a func gauge

	simTime  *MaxGauge
	makespan *MaxGauge
	queueMax *MaxGauge
	expected atomic.Int64 // runs expected by the current sweep/batch

	buildOnce sync.Once // StampBuildInfo registers at most once
}

// NewSimMetrics builds the SimMR metric set on a fresh registry;
// shards <= 0 sizes the shard count to GOMAXPROCS (the parallel
// worker-pool ceiling).
func NewSimMetrics(shards int) *SimMetrics {
	r := NewRegistry(shards)
	kinds := make([]string, obs.KindCount)
	for k := obs.Kind(0); k < obs.KindCount; k++ {
		kinds[k] = k.String()
	}
	t := &SimMetrics{
		reg: r,
		mapTaskDur: r.NewHistogram("simmr_map_task_duration_seconds",
			"Simulated durations of replayed map task executions.", TaskDurationBuckets),
		reduceTaskDur: r.NewHistogram("simmr_reduce_task_duration_seconds",
			"Simulated durations of replayed reduce tasks (shuffle + reduce phase).", TaskDurationBuckets),
		jobCompletion: r.NewHistogram("simmr_job_completion_seconds",
			"Simulated job completion times (departure - arrival).", CompletionBuckets),
		queueHigh: r.NewHistogram("simmr_queue_high_water_events",
			"Peak pending-event population of the DES queue, one observation per replay.", QueueBuckets),
		queueDepth: r.NewHistogram("simmr_queue_depth_events",
			"Pending-event population of the DES queue, sampled periodically during replays (queue pressure over time, not just the high-water mark).", QueueBuckets),
		replayWall: r.NewHistogram("simmr_replay_wall_seconds",
			"Wall-clock time per replay through the parallel runtime.", WallBuckets),
		replayRate: r.NewHistogram("simmr_replay_events_per_second",
			"Engine event throughput per replay (events / wall seconds).", RateBuckets),
		eventsTotal: r.NewCounter("simmr_engine_events_total",
			"Engine events processed (DES queue pops), summed at replay end."),
		eventsByKind: r.NewCounterVec("simmr_engine_events_by_kind_total",
			"Observability events delivered to sinks, by kind.", "kind", kinds),
		jobsTotal: r.NewCounter("simmr_jobs_completed_total",
			"Jobs that departed across all replays."),
		replaysTotal: r.NewCounter("simmr_replays_total",
			"Replays completed."),
		preemptions: r.NewCounter("simmr_preemptions_total",
			"Map tasks killed under PreemptMapTasks."),
		fillerPatch: r.NewCounter("simmr_filler_patches_total",
			"First-wave filler reduces patched at map-stage completion."),
		mapAllocs: r.NewCounter("simmr_map_slot_allocs_total",
			"Map slot grants."),
		reduceAllocs: r.NewCounter("simmr_reduce_slot_allocs_total",
			"Reduce slot grants."),
		forksTotal: r.NewCounter("simmr_engine_forks_total",
			"What-if branch engines forked off sealed snapshots."),
		forkBytesCopied: r.NewCounter("simmr_engine_fork_bytes_copied",
			"Engine state bytes physically copied by forks (event-queue clones plus copy-on-write jobs-slab chunks)."),
		forkBytesShared: r.NewCounter("simmr_engine_fork_bytes_shared",
			"Engine state bytes forks still served read-only from their snapshot at branch end."),
		simTime: r.NewMaxGauge("simmr_sim_time_seconds",
			"Latest simulated timestamp observed across replays (max-merged)."),
		makespan: r.NewMaxGauge("simmr_makespan_seconds",
			"Largest replay makespan observed (max-merged)."),
		queueMax: r.NewMaxGauge("simmr_queue_high_water_events_max",
			"Largest DES queue high-water observed across replays (max-merged)."),
	}
	pg := r.NewCounterVec("simmr_engine_pool_gets_total",
		"Engine acquisitions from the replay pool, by whether a warmed engine was reused.",
		"reused", []string{"false", "true"})
	t.poolGets[0], t.poolGets[1] = pg[0], pg[1]
	rh := r.NewCounterVec("simmr_rcache_hits_total",
		"Replay result cache hits, by the tier that served them.",
		"tier", []string{"mem", "disk"})
	t.rcacheHits[0], t.rcacheHits[1] = rh[0], rh[1]
	t.rcacheMisses = r.NewCounter("simmr_rcache_misses_total",
		"Replay result cache misses (including corrupt entries silently dropped).")
	t.rcacheEvictions = r.NewCounter("simmr_rcache_evictions_total",
		"Entries evicted from the cache's in-memory LRU tier under byte-budget pressure.")
	r.NewFuncGauge("simmr_rcache_bytes",
		"Bytes resident in the replay result cache's in-memory tier.",
		func() float64 { return float64(t.rcacheBytes.Load()) })
	t.spans = r.NewHistogramVec("simmr_replay_stage_seconds",
		"Wall-clock replay lifecycle stage timings (trace load, engine build, run, report).",
		"stage", SpanStages, WallBuckets)
	waitPhases := make([]string, len(attr.WaitPhases))
	for i, p := range attr.WaitPhases {
		waitPhases[i] = p.String()
	}
	t.jobWait = r.NewHistogramVec("simmr_job_wait_seconds",
		"Per-job attributed wait time by phase (attr phase decomposition; one observation per job per phase).",
		"phase", waitPhases, WaitBuckets)
	causes := make([]string, attr.PhaseCount)
	for p := attr.Phase(0); p < attr.PhaseCount; p++ {
		causes[p] = p.String()
	}
	t.missCause = r.NewCounterVec("simmr_deadline_miss_causes_total",
		"Deadline misses by attributed root cause (the phase that consumed most of the job's completion time).",
		"cause", causes)
	return t
}

// Registry returns the underlying registry — serve it with Handler.
func (t *SimMetrics) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// ExpectRuns adds n to the number of replays the current workload will
// perform; the expvar view reports done only once that many replays
// finished, not after the first one.
func (t *SimMetrics) ExpectRuns(n int) {
	if t == nil {
		return
	}
	t.expected.Add(int64(n))
}

// ReplayDone records one replay's wall time and throughput. Callers
// invoke it once per replay (cold path), so it picks a shard per call.
func (t *SimMetrics) ReplayDone(wall time.Duration, events uint64) {
	if t == nil {
		return
	}
	sh := t.reg.NextShard()
	sec := wall.Seconds()
	t.replayWall.Observe(sh, sec)
	if sec > 0 {
		t.replayRate.Observe(sh, float64(events)/sec)
	}
}

// ForkDone records one finished what-if branch: its copy-on-write byte
// split, read from engine.ForkStats after the branch's Run so lazily
// copied chunks are fully accounted. Cold path, once per branch.
func (t *SimMetrics) ForkDone(bytesCopied, bytesShared uint64) {
	if t == nil {
		return
	}
	sh := t.reg.NextShard()
	t.forksTotal.Inc(sh)
	t.forkBytesCopied.Add(sh, bytesCopied)
	t.forkBytesShared.Add(sh, bytesShared)
}

// PoolGet records one engine acquisition; wire it to engine.Pool.OnGet.
func (t *SimMetrics) PoolGet(reused bool) {
	if t == nil {
		return
	}
	i := 0
	if reused {
		i = 1
	}
	t.poolGets[i].Inc(t.reg.NextShard())
}

// RCacheHit records one replay-result-cache hit; disk says which tier
// served it. Together with RCacheMiss/RCacheEvictions/RCacheBytes this
// makes *SimMetrics satisfy rcache.Observer. Cold path, once per
// lookup.
func (t *SimMetrics) RCacheHit(disk bool) {
	if t == nil {
		return
	}
	i := 0
	if disk {
		i = 1
	}
	t.rcacheHits[i].Inc(t.reg.NextShard())
}

// RCacheMiss records one replay-result-cache miss.
func (t *SimMetrics) RCacheMiss() {
	if t == nil {
		return
	}
	t.rcacheMisses.Inc(t.reg.NextShard())
}

// RCacheEvictions records n entries evicted from the memory tier.
func (t *SimMetrics) RCacheEvictions(n uint64) {
	if t == nil {
		return
	}
	t.rcacheEvictions.Add(t.reg.NextShard(), n)
}

// RCacheBytes reports the cache's current resident memory bytes.
func (t *SimMetrics) RCacheBytes(n int64) {
	if t == nil {
		return
	}
	t.rcacheBytes.Store(n)
}

// Span starts timing one replay-lifecycle stage ("load", "build",
// "run", "report") and returns the stop function. Unknown stages and
// nil receivers return an inert stop.
func (t *SimMetrics) Span(stage string) func() {
	if t == nil {
		return noopStop
	}
	var h *Histogram
	for i, s := range SpanStages {
		if s == stage {
			h = t.spans[i]
			break
		}
	}
	if h == nil {
		return noopStop
	}
	start := time.Now()
	return func() {
		h.Observe(t.reg.NextShard(), time.Since(start).Seconds())
	}
}

func noopStop() {}

// EngineSink returns a new single-engine observability sink feeding
// this metric set, pinned to one registry shard for its lifetime.
// Returns a nil interface when t is nil, so the engine's `sink != nil`
// fast path stays taken. One sink per engine (obs.Sink contract); a
// sink may be reused across sequential runs of the same engine.
func (t *SimMetrics) EngineSink() obs.Sink {
	if t == nil {
		return nil
	}
	return &engineSink{
		t:        t,
		shard:    t.reg.NextShard(),
		arrivals: make(map[int]float64),
	}
}

// engineSink tallies one engine's event stream into the shared sharded
// registry. It is single-goroutine like every obs.Sink; all its writes
// go to its own shard, so concurrent sinks never contend.
type engineSink struct {
	t     *SimMetrics
	shard int
	// arrivals maps live job IDs to arrival times so departures can
	// observe completion durations; cleared at RunEnd for reuse.
	arrivals map[int]float64
	// fillerStarts maps jobID<<20|task to first-wave reduce start times
	// so KindFillerPatch can observe the full task duration. Lazily
	// allocated: replays without fillers never build it.
	fillerStarts map[int64]float64
}

func fillerKey(jobID, task int) int64 {
	return int64(jobID)<<20 | int64(task)
}

// Event tallies one engine event.
func (s *engineSink) Event(ev obs.Event) {
	t, sh := s.t, s.shard
	t.eventsByKind[ev.Kind].Inc(sh)
	t.simTime.Observe(sh, ev.Time)
	switch ev.Kind {
	case obs.KindJobArrival:
		s.arrivals[ev.JobID] = ev.Time
	case obs.KindJobDeparture:
		if a, ok := s.arrivals[ev.JobID]; ok {
			t.jobCompletion.Observe(sh, ev.Time-a)
			delete(s.arrivals, ev.JobID)
		}
		t.jobsTotal.Inc(sh)
	case obs.KindMapTaskStart:
		// End is the planned departure; preempted attempts are counted
		// as scheduled (their replanned re-execution is counted again).
		t.mapTaskDur.Observe(sh, ev.End-ev.Time)
	case obs.KindReduceTaskStart:
		if math.IsInf(ev.End, 1) {
			// First-wave filler: duration unknown until the map stage
			// completes; remember the start for KindFillerPatch.
			if s.fillerStarts == nil {
				s.fillerStarts = make(map[int64]float64)
			}
			s.fillerStarts[fillerKey(ev.JobID, ev.Task)] = ev.Time
		} else {
			t.reduceTaskDur.Observe(sh, ev.End-ev.Time)
		}
	case obs.KindFillerPatch:
		if start, ok := s.fillerStarts[fillerKey(ev.JobID, ev.Task)]; ok {
			t.reduceTaskDur.Observe(sh, ev.End-start)
			delete(s.fillerStarts, fillerKey(ev.JobID, ev.Task))
		}
	}
}

// SampleDepth implements obs.DepthSampler: the engine reports the
// event queue's pending population periodically during the run, so
// queue pressure lands in simmr_queue_depth_events as a distribution.
func (s *engineSink) SampleDepth(_ float64, depth int) {
	s.t.queueDepth.Observe(s.shard, float64(depth))
}

// RunEnd folds the run-level counters into the registry and resets the
// sink's per-run scratch so it can serve the engine's next run.
func (s *engineSink) RunEnd(c obs.Counters) {
	t, sh := s.t, s.shard
	t.eventsTotal.Add(sh, c.Events)
	t.queueHigh.Observe(sh, float64(c.HeapHighWater))
	t.queueMax.Observe(sh, float64(c.HeapHighWater))
	t.preemptions.Add(sh, c.Preemptions)
	t.fillerPatch.Add(sh, c.FillerPatches)
	t.mapAllocs.Add(sh, c.MapSlotAllocs)
	t.reduceAllocs.Add(sh, c.ReduceSlotAllocs)
	t.makespan.Observe(sh, c.Makespan)
	t.replaysTotal.Inc(sh)
	clear(s.arrivals)
	clear(s.fillerStarts)
}

// ExpvarValue renders the merged registry as the stable /debug/vars
// map (event counts by kind, run counters, expected and finished
// runs). `done` honors ExpectRuns: a live sweep is done only when every
// expected replay finished.
func (t *SimMetrics) ExpvarValue() any {
	if t == nil {
		return nil
	}
	byKind := make(map[string]uint64, obs.KindCount)
	var observed uint64
	for k := obs.Kind(0); k < obs.KindCount; k++ {
		if v := t.eventsByKind[k].Value(); v > 0 {
			byKind[k.String()] = v
			observed += v
		}
	}
	finished := t.replaysTotal.Value()
	expected := t.expected.Load()
	return map[string]any{
		"observed_events":    observed,
		"by_kind":            byKind,
		"sim_time_s":         t.simTime.Value(),
		"done":               expected > 0 && finished >= uint64(expected),
		"runs_expected":      expected,
		"runs_finished":      finished,
		"engine_events":      t.eventsTotal.Value(),
		"heap_high_water":    int(t.queueMax.Value()),
		"preemptions":        t.preemptions.Value(),
		"filler_patches":     t.fillerPatch.Value(),
		"map_slot_allocs":    t.mapAllocs.Value(),
		"reduce_slot_allocs": t.reduceAllocs.Value(),
		"jobs":               t.jobsTotal.Value(),
		"makespan_s":         t.makespan.Value(),
	}
}
